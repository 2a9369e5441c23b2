#include "drivers.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "gpu/coalescer.hh"
#include "gpu/kernel.hh"
#include "mem/l1_cache.hh"
#include "mem/memory_system.hh"
#include "mmu/l2_tlb.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/event_queue.hh"
#include "vm/address_space.hh"

namespace perfbench {

using namespace gpummu;

namespace {

/** Results flow here so the timed loops cannot be optimised away. */
volatile std::uint64_t g_sink = 0;

/** Cycles an L2-TLB miss's walk is modelled to take in its driver. */
constexpr Cycle kL2WalkCycles = 200;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The streams each layer sees, derived untimed from the capture. */
struct Streams
{
    bool sharedTlb = false; ///< one GPU-wide TLB/walker pool (IOMMU)
    /** Translation unit (core, or 0 when shared) of each access. */
    std::vector<int> unit;
    /** Pages of access a: [pageBegin[a], pageBegin[a + 1]). */
    std::vector<std::size_t> pageBegin;
    std::vector<Vpn> pageVpn;
    std::vector<Translation> pageXlate;
    /** Physical lines of page p: [lineBegin[p], lineBegin[p + 1]). */
    std::vector<std::size_t> lineBegin;
    std::vector<PhysAddr> line;

    /** One access's L1-TLB misses. */
    struct MissBatch
    {
        std::size_t access = 0;
        std::vector<Vpn> vpns;
        std::vector<Translation> xlate;
    };
    std::vector<MissBatch> misses;
    std::uint64_t missVpns = 0;

    /** One L1 miss handed to the shared memory system. */
    struct MemRef
    {
        PhysAddr line = 0;
        bool store = false;
        Cycle at = 0;
    };
    std::vector<MemRef> l1Misses;
    std::uint64_t lanes = 0;
    unsigned units = 1;
};

Translation
mustTranslate(const PageTable &pt, Vpn vpn)
{
    const auto t = pt.translate(vpn);
    if (!t)
        throw std::runtime_error("captured address is unmapped (vpn " +
                                 std::to_string(vpn) + ")");
    return *t;
}

Streams
deriveStreams(const SystemConfig &cfg, const MemTraceData &trace,
              const PageTable &pt)
{
    // Every point of the benchmark maps 4KB pages; the streams below
    // (TLB tags, walk VPNs, physical lines) are derived for those.
    if (trace.meta.largePages)
        throw std::runtime_error("the layer drivers model 4KB pages only");
    Streams s;
    s.sharedTlb = cfg.iommu;
    s.units = s.sharedTlb ? 1u : std::max(1u, trace.meta.numCores);

    CoalescedAccess acc;
    std::vector<std::vector<std::uint64_t>> spare;
    const TlbConfig tlb_cfg =
        s.sharedTlb ? cfg.iommuCfg.tlb : cfg.core.mmu.tlb;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    for (unsigned u = 0; u < s.units; ++u)
        tlbs.push_back(std::make_unique<Tlb>(tlb_cfg));

    s.pageBegin.push_back(0);
    s.lineBegin.push_back(0);
    for (std::size_t a = 0; a < trace.accesses.size(); ++a) {
        const MemTraceAccess &ma = trace.accesses[a];
        const int unit = s.sharedTlb ? 0 : ma.core;
        if (unit < 0 || static_cast<unsigned>(unit) >= s.units)
            throw std::runtime_error("captured access names core " +
                                     std::to_string(ma.core));
        s.unit.push_back(unit);
        s.lanes += ma.addrs.size();
        coalesceInto(acc, spare, ma.addrs, kLineShift, kPageShift4K);
        Streams::MissBatch batch;
        batch.access = a;
        for (const auto &pg : acc.pages) {
            const Translation t = mustTranslate(pt, pg.vpn);
            s.pageVpn.push_back(pg.vpn);
            s.pageXlate.push_back(t);
            Tlb &tlb = *tlbs[static_cast<std::size_t>(unit)];
            if (!tlb.lookup(pg.vpn, ma.warp).hit) {
                tlb.fill(pg.vpn, t, ma.warp);
                batch.vpns.push_back(pg.vpn);
                batch.xlate.push_back(t);
            }
            for (std::uint64_t vline : pg.vlines) {
                const VirtAddr va = vline << kLineShift;
                const PhysAddr pa = (static_cast<PhysAddr>(t.ppn)
                                     << kPageShift4K) |
                                    (va & (kPageSize4K - 1));
                s.line.push_back(lineAddrOf(pa));
            }
            s.lineBegin.push_back(s.line.size());
        }
        s.pageBegin.push_back(s.pageVpn.size());
        if (!batch.vpns.empty()) {
            s.missVpns += batch.vpns.size();
            s.misses.push_back(std::move(batch));
        }
    }

    // L1 misses, from per-core L1s over the physical line stream.
    MemorySystem mem(cfg.mem);
    std::vector<std::unique_ptr<L1Cache>> l1s;
    for (unsigned c = 0; c < std::max(1u, trace.meta.numCores); ++c)
        l1s.push_back(std::make_unique<L1Cache>(cfg.core.l1, mem));
    for (std::size_t a = 0; a < trace.accesses.size(); ++a) {
        const MemTraceAccess &ma = trace.accesses[a];
        L1Cache &l1 = *l1s.at(static_cast<std::size_t>(ma.core));
        for (std::size_t p = s.pageBegin[a]; p < s.pageBegin[a + 1];
             ++p) {
            for (std::size_t l = s.lineBegin[p]; l < s.lineBegin[p + 1];
                 ++l) {
                Cycle at = ma.cycle;
                AccessOutcome out = l1.access(s.line[l], ma.store, at,
                                              ma.warp);
                while (out.needRetry) {
                    at = out.readyAt;
                    out = l1.access(s.line[l], ma.store, at, ma.warp);
                }
                if (!out.hit)
                    s.l1Misses.push_back({s.line[l], ma.store, at});
            }
        }
    }
    return s;
}

/**
 * Time @p reps repetitions of @p body over fresh state from @p make.
 * Each repetition is a span "<layer>.rep" under the span "<layer>".
 */
template <typename Make, typename Body>
LayerTiming
timeLayer(const std::string &layer, std::uint64_t stream, int reps,
          SpanLog &log, int parent, Make make, Body body)
{
    LayerTiming lt;
    lt.layer = layer;
    lt.stream = stream;
    const int layer_span = log.open(layer, parent);
    for (int r = 0; r < reps; ++r) {
        auto state = make();
        const int span = log.open(layer + ".rep", layer_span);
        const std::uint64_t calls = body(*state);
        log.close(span);
        lt.repSeconds.push_back(log.seconds(span));
        if (r > 0 && calls != lt.calls)
            throw std::runtime_error(layer + ": repetitions disagree "
                                             "on the call count");
        lt.calls = calls;
    }
    log.close(layer_span);
    lt.nsPerCall = lt.calls ? median(lt.repSeconds) * 1e9 /
                                  static_cast<double>(lt.calls)
                            : 0.0;
    return lt;
}

void
countEvent(void *ctx, Cycle)
{
    ++*static_cast<std::uint64_t *>(ctx);
}

/** Memory-instruction slots of a program: (block, address gen). */
std::vector<std::pair<int, int>>
memorySlots(const KernelProgram &prog)
{
    std::vector<std::pair<int, int>> slots;
    for (const BasicBlock &b : prog.blocks()) {
        for (const Instruction &in : b.instrs) {
            if (in.op == Opcode::Load || in.op == Opcode::Store)
                slots.emplace_back(b.id, in.addrGen);
        }
    }
    return slots;
}

} // namespace

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

int
SpanLog::open(const std::string &name, int parent)
{
    HostSpan s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.start = now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(int id)
{
    spans_.at(static_cast<std::size_t>(id)).end = now();
}

double
SpanLog::seconds(int id) const
{
    const HostSpan &s = spans_.at(static_cast<std::size_t>(id));
    return s.end - s.start;
}

std::vector<LayerTiming>
driveLayers(BenchmarkId bench, const SystemConfig &cfg,
            const WorkloadParams &params, const MemTraceData &trace,
            int reps, SpanLog &log, int parent)
{
    // The run's address space, rebuilt: same frames, same page table.
    PhysicalMemory phys(cfg.physFrames);
    AddressSpace as(phys, cfg.largePages);
    auto workload = makeWorkload(bench, params);
    workload->build(as);
    const PageTable &pt = as.pageTable();

    const int derive_span = log.open("derive", parent);
    const Streams s = deriveStreams(cfg, trace, pt);
    log.close(derive_span);

    std::vector<LayerTiming> out;
    const std::size_t n_access = trace.accesses.size();

    // --- gpu.coalescer: one coalesceInto per memory instruction. ---
    struct CoalesceState
    {
        CoalescedAccess acc;
        std::vector<std::vector<std::uint64_t>> spare;
    };
    out.push_back(timeLayer(
        "gpu.coalescer", n_access, reps, log, parent,
        [] { return std::make_unique<CoalesceState>(); },
        [&](CoalesceState &st) {
            std::uint64_t calls = 0;
            std::uint64_t lines = 0;
            for (const MemTraceAccess &ma : trace.accesses) {
                coalesceInto(st.acc, st.spare, ma.addrs, kLineShift,
                             kPageShift4K);
                lines += st.acc.totalLines;
                ++calls;
            }
            g_sink = g_sink + lines;
            return calls;
        }));

    // --- mmu.tlb: lookup per page, fill on a miss. ---
    const TlbConfig tlb_cfg =
        s.sharedTlb ? cfg.iommuCfg.tlb : cfg.core.mmu.tlb;
    struct TlbState
    {
        std::vector<std::unique_ptr<Tlb>> tlbs;
    };
    out.push_back(timeLayer(
        "mmu.tlb", s.pageVpn.size(), reps, log, parent,
        [&] {
            auto st = std::make_unique<TlbState>();
            for (unsigned u = 0; u < s.units; ++u)
                st->tlbs.push_back(std::make_unique<Tlb>(tlb_cfg));
            return st;
        },
        [&](TlbState &st) {
            std::uint64_t calls = 0;
            std::uint64_t hits = 0;
            for (std::size_t a = 0; a < n_access; ++a) {
                Tlb &tlb = *st.tlbs[static_cast<std::size_t>(s.unit[a])];
                const int warp = trace.accesses[a].warp;
                for (std::size_t p = s.pageBegin[a];
                     p < s.pageBegin[a + 1]; ++p) {
                    ++calls;
                    if (tlb.lookup(s.pageVpn[p], warp).hit)
                        ++hits;
                    else
                        tlb.fill(s.pageVpn[p], s.pageXlate[p], warp);
                }
            }
            g_sink = g_sink + hits;
            return calls;
        }));

    // --- mmu.ptw: walk batches at their capture cycles. ---
    const PtwConfig ptw_cfg =
        s.sharedTlb ? cfg.iommuCfg.ptw : cfg.core.mmu.ptw;
    struct PtwState
    {
        explicit PtwState(const MemorySystemConfig &mc) : mem(mc) {}
        MemorySystem mem;
        EventQueue eq;
        std::vector<std::unique_ptr<PageWalkers>> pools;
        std::uint64_t done = 0;
    };
    out.push_back(timeLayer(
        "mmu.ptw", s.missVpns, reps, log, parent,
        [&] {
            auto st = std::make_unique<PtwState>(cfg.mem);
            for (unsigned u = 0; u < s.units; ++u) {
                st->pools.push_back(std::make_unique<PageWalkers>(
                    ptw_cfg, pt, st->mem, st->eq));
            }
            return st;
        },
        [&](PtwState &st) {
            std::uint64_t *done = &st.done;
            for (const Streams::MissBatch &b : s.misses) {
                const Cycle at = trace.accesses[b.access].cycle;
                if (at > st.eq.now())
                    st.eq.runUntil(at);
                st.pools[static_cast<std::size_t>(s.unit[b.access])]
                    ->requestBatch(b.vpns, st.eq.now(),
                                   [done](Vpn, Cycle) { ++*done; });
            }
            while (!st.eq.empty())
                st.eq.runUntil(st.eq.nextEventCycle());
            return st.done;
        }));

    // --- mmu.l2tlb: the shared L2 TLB behind the L1-TLB misses. ---
    if (cfg.l2tlb.enabled && !s.sharedTlb) {
        struct L2State
        {
            L2State(const L2TlbConfig &c, const PageTable &p,
                    unsigned shift)
                : l2(c, p, eq, shift)
            {}
            EventQueue eq;
            L2Tlb l2;
            std::uint64_t woken = 0;
        };
        out.push_back(timeLayer(
            "mmu.l2tlb", s.missVpns, reps, log, parent,
            [&] {
                return std::make_unique<L2State>(cfg.l2tlb, pt,
                                                 kPageShift4K);
            },
            [&](L2State &st) {
                std::uint64_t calls = 0;
                std::uint64_t *woken = &st.woken;
                auto wake = [woken](Vpn, std::uint64_t, bool, Cycle) {
                    ++*woken;
                };
                for (const Streams::MissBatch &b : s.misses) {
                    const Cycle at = trace.accesses[b.access].cycle;
                    if (at > st.eq.now())
                        st.eq.runUntil(at);
                    for (std::size_t i = 0; i < b.vpns.size(); ++i) {
                        ++calls;
                        const Vpn tag = b.vpns[i];
                        const Translation t = b.xlate[i];
                        const Cycle now = st.eq.now();
                        const auto res = st.l2.access(tag, now, wake);
                        if (res.outcome == L2Tlb::Outcome::NeedWalk) {
                            L2Tlb *l2 = &st.l2;
                            st.eq.schedule(
                                now + kL2WalkCycles,
                                [l2, tag, t, now] {
                                    l2->fill(tag, t,
                                             now + kL2WalkCycles);
                                });
                        } else if (res.outcome ==
                                   L2Tlb::Outcome::Bypass) {
                            st.l2.fillBypass(tag, t, now);
                        }
                    }
                }
                while (!st.eq.empty())
                    st.eq.runUntil(st.eq.nextEventCycle());
                g_sink = g_sink + st.woken;
                return calls;
            }));
    }

    // --- mem.l1: per-core L1s over the physical line stream. ---
    struct L1State
    {
        explicit L1State(const MemorySystemConfig &mc) : mem(mc) {}
        MemorySystem mem;
        std::vector<std::unique_ptr<L1Cache>> l1s;
    };
    const unsigned n_cores = std::max(1u, trace.meta.numCores);
    out.push_back(timeLayer(
        "mem.l1", s.line.size(), reps, log, parent,
        [&] {
            auto st = std::make_unique<L1State>(cfg.mem);
            for (unsigned c = 0; c < n_cores; ++c) {
                st->l1s.push_back(
                    std::make_unique<L1Cache>(cfg.core.l1, st->mem));
            }
            return st;
        },
        [&](L1State &st) {
            std::uint64_t calls = 0;
            std::uint64_t hits = 0;
            for (std::size_t a = 0; a < n_access; ++a) {
                const MemTraceAccess &ma = trace.accesses[a];
                L1Cache &l1 = *st.l1s[static_cast<std::size_t>(ma.core)];
                const std::size_t l0 = s.lineBegin[s.pageBegin[a]];
                const std::size_t l1_end = s.lineBegin[s.pageBegin[a + 1]];
                for (std::size_t l = l0; l < l1_end; ++l) {
                    ++calls;
                    AccessOutcome o =
                        l1.access(s.line[l], ma.store, ma.cycle, ma.warp);
                    while (o.needRetry)
                        o = l1.access(s.line[l], ma.store, o.readyAt,
                                      ma.warp);
                    hits += o.hit;
                }
            }
            g_sink = g_sink + hits;
            return calls;
        }));

    // --- mem.system: the shared L2/DRAM behind the L1 misses. ---
    out.push_back(timeLayer(
        "mem.system", s.l1Misses.size(), reps, log, parent,
        [&] { return std::make_unique<MemorySystem>(cfg.mem); },
        [&](MemorySystem &mem) {
            std::uint64_t calls = 0;
            Cycle last = 0;
            for (const Streams::MemRef &r : s.l1Misses) {
                ++calls;
                last = std::max(last, mem.access(r.line, r.store, r.at,
                                                 AccessSource::Data)
                                          .readyAt);
            }
            g_sink = g_sink + last;
            return calls;
        }));

    // --- vm.walk: the page-table radix walk of every missing VPN. ---
    out.push_back(timeLayer(
        "vm.walk", s.missVpns, reps, log, parent,
        [] { return std::make_unique<int>(0); },
        [&](int &) {
            std::uint64_t calls = 0;
            std::uint64_t acc = 0;
            for (const Streams::MissBatch &b : s.misses) {
                for (Vpn v : b.vpns) {
                    ++calls;
                    acc += pt.walk(v).result.ppn;
                }
            }
            g_sink = g_sink + acc;
            return calls;
        }));

    // --- workloads.addrgen: one genAddr per active lane. Each warp
    // walks the program's memory instructions in static order; a
    // block's first memory instruction counts as a visit of it. ---
    const KernelProgram &prog = workload->program();
    const auto slots = memorySlots(prog);
    if (!slots.empty()) {
        const unsigned tpb = workload->threadsPerBlock();
        const std::size_t n_threads =
            static_cast<std::size_t>(workload->numBlocks()) * tpb;
        struct GenState
        {
            std::vector<ThreadCtx> ctx;
            std::vector<bool> made;
            std::map<std::pair<unsigned, int>, std::size_t> next;
        };
        out.push_back(timeLayer(
            "workloads.addrgen", s.lanes, reps, log, parent,
            [&] {
                auto st = std::make_unique<GenState>();
                st->ctx.resize(n_threads);
                st->made.assign(n_threads, false);
                return st;
            },
            [&](GenState &st) {
                std::uint64_t calls = 0;
                std::uint64_t acc = 0;
                for (const MemTraceAccess &ma : trace.accesses) {
                    std::size_t &k = st.next[{ma.block, ma.warp}];
                    const auto [blk, gen] = slots[k % slots.size()];
                    const bool visit =
                        k % slots.size() == 0 ||
                        slots[(k - 1) % slots.size()].first != blk;
                    ++k;
                    std::uint64_t mask = ma.mask;
                    while (mask != 0) {
                        const unsigned lane = static_cast<unsigned>(
                            std::countr_zero(mask));
                        mask &= mask - 1;
                        const unsigned tib = static_cast<unsigned>(
                                                 ma.warp) *
                                                 kWarpWidth +
                                             lane;
                        const std::size_t gtid =
                            static_cast<std::size_t>(ma.block) * tpb + tib;
                        if (gtid >= n_threads)
                            throw std::runtime_error(
                                "captured lane outside the grid");
                        ThreadCtx &ctx = st.ctx[gtid];
                        if (!st.made[gtid]) {
                            ctx = ThreadCtx(static_cast<int>(gtid),
                                            static_cast<int>(ma.block),
                                            static_cast<int>(tib),
                                            kWarpWidth, params.seed);
                            ctx.blockVisits.assign(prog.numBlocks(), 0);
                            st.made[gtid] = true;
                        }
                        if (visit)
                            ++ctx.blockVisits[static_cast<std::size_t>(
                                blk)];
                        acc += prog.genAddr(gen, ctx);
                        ++calls;
                    }
                }
                g_sink = g_sink + acc;
                return calls;
            }));
    }

    // --- sim.eventq: one raw event per memory instruction, scheduled
    // at its capture cycle plus its coalesced width. ---
    struct EqState
    {
        EventQueue eq;
        std::uint64_t fired = 0;
    };
    out.push_back(timeLayer(
        "sim.eventq", n_access, reps, log, parent,
        [] { return std::make_unique<EqState>(); },
        [&](EqState &st) {
            for (std::size_t a = 0; a < n_access; ++a) {
                const Cycle at = trace.accesses[a].cycle;
                if (at > st.eq.now())
                    st.eq.runUntil(at);
                const Cycle width =
                    s.lineBegin[s.pageBegin[a + 1]] -
                    s.lineBegin[s.pageBegin[a]];
                st.eq.scheduleRaw(at + 1 + width, &countEvent,
                                  &st.fired);
            }
            while (!st.eq.empty())
                st.eq.runUntil(st.eq.nextEventCycle());
            return st.eq.eventsFired();
        }));
    return out;
}

} // namespace perfbench
