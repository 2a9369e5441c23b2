#include "gpu/gpu_top.hh"

#include <algorithm>

#include "gpu/memory_stage.hh"
#include "mem/l1_cache.hh"
#include "mmu/mmu.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"

namespace gpummu {

void
dumpRunStatsJson(std::ostream &os, const RunStats &s)
{
    os << "{\"cycles\":" << s.cycles
       << ",\"instructions\":" << s.instructions
       << ",\"mem_instructions\":" << s.memInstructions
       << ",\"tlb_accesses\":" << s.tlbAccesses
       << ",\"tlb_hits\":" << s.tlbHits
       << ",\"l1_accesses\":" << s.l1Accesses
       << ",\"l1_hits\":" << s.l1Hits
       << ",\"idle_cycles\":" << s.idleCycles
       << ",\"walk_refs_issued\":" << s.walkRefsIssued
       << ",\"walk_refs_eliminated\":" << s.walkRefsEliminated
       << ",\"walk_l2_accesses\":" << s.walkL2Accesses
       << ",\"walk_l2_hits\":" << s.walkL2Hits
       << ",\"avg_tlb_miss_latency\":" << jsonNum(s.avgTlbMissLatency)
       << ",\"avg_l1_miss_latency\":" << jsonNum(s.avgL1MissLatency)
       << ",\"avg_page_divergence\":" << jsonNum(s.avgPageDivergence)
       << ",\"max_page_divergence\":" << s.maxPageDivergence << "}";
}

GpuTop::GpuTop(unsigned num_cores, const MemorySystemConfig &mem_cfg,
               Workload &workload, CoreFactory factory, bool large_pages,
               std::uint64_t phys_frames)
    : phys_(phys_frames), as_(phys_, large_pages), mem_(mem_cfg),
      workload_(workload)
{
    GPUMMU_ASSERT(num_cores > 0);
    workload_.build(as_);
    workload_.program().validate();

    launch_.program = &workload_.program();
    launch_.threadsPerBlock = workload_.threadsPerBlock();
    launch_.totalBlocks = workload_.numBlocks();
    launch_.seed = workload_.params().seed;
    GPUMMU_ASSERT(launch_.totalBlocks > 0);

    cores_.reserve(num_cores);
    for (unsigned i = 0; i < num_cores; ++i) {
        cores_.push_back(factory(static_cast<int>(i), launch_, as_,
                                 mem_, eq_));
        cores_.back()->regStats(stats_,
                                "core" + std::to_string(i));
    }
    mem_.regStats(stats_, "mem");
}

void
GpuTop::observe(const Probes &probes)
{
    mem_.observe(probes);
    for (auto &core : cores_)
        core->observe(probes);
}

bool
GpuTop::setMemTrace(MemTraceWriter *writer)
{
    if (writer == nullptr) {
        for (auto &core : cores_)
            core->setMemTraceWriter(nullptr);
        return true;
    }
    // Arm every core first; if any core type cannot capture (TBC),
    // disarm the rest — a half-armed trace would not replay.
    for (auto &core : cores_) {
        if (!core->setMemTraceWriter(writer)) {
            for (auto &c : cores_)
                c->setMemTraceWriter(nullptr);
            return false;
        }
    }
    MemTraceMeta meta;
    meta.bench = workload_.name();
    meta.numCores = static_cast<unsigned>(cores_.size());
    meta.seed = launch_.seed;
    meta.scale = workload_.params().scale;
    meta.threadsPerBlock = launch_.threadsPerBlock;
    meta.numBlocks = launch_.totalBlocks;
    meta.largePages = as_.usesLargePages();
    std::vector<MemTraceRegion> regions;
    for (const VmRegion &r : as_.regions())
        regions.push_back(MemTraceRegion{r.name, r.bytes});
    if (!writer->beginRun(meta, regions, *launch_.program)) {
        for (auto &core : cores_)
            core->setMemTraceWriter(nullptr);
        return false;
    }
    return true;
}

namespace {

/** Place pending blocks breadth-first: one block per core per round,
 *  so occupancy spreads across the machine the way GPGPU-Sim
 *  dispatches. */
void
dispatchBlocks(const std::vector<std::unique_ptr<ShaderCore>> &cores,
               unsigned &next_block, unsigned end_block)
{
    bool placed = true;
    while (placed && next_block < end_block) {
        placed = false;
        for (const auto &core : cores) {
            if (next_block >= end_block)
                break;
            if (core->canAcceptBlock()) {
                core->launchBlock(next_block++);
                placed = true;
            }
        }
    }
}

} // namespace

CycleLoopStats
runCycleLoop(const std::vector<std::unique_ptr<ShaderCore>> &cores,
             EventQueue &eq, Telemetry *telemetry, unsigned &next_block,
             unsigned end_block, Cycle start, Cycle max_cycles)
{
    CycleLoopStats st;
    dispatchBlocks(cores, next_block, end_block);
    Cycle cycle = start;
    while (true) {
        eq.runUntil(cycle);
        for (const auto &core : cores) {
            if (core->nextTick() <= cycle) {
                core->tick(cycle);
                ++st.coreTicks;
            }
        }
        dispatchBlocks(cores, next_block, end_block);
        if (next_block >= end_block && eq.empty() &&
            std::all_of(cores.begin(), cores.end(),
                        [](const auto &c) { return c->idle(); })) {
            break;
        }
        // An interval boundary samples live counters: settle every
        // core's pending charges first.
        if (telemetry != nullptr) {
            if (cycle + 1 >= telemetry->nextBoundary()) {
                for (const auto &core : cores)
                    core->settle(cycle + 1);
            }
            telemetry->tick(cycle);
        }

        // Nothing happens before the next event or the earliest wake:
        // skip there, stopping at the cycle that closes the next
        // telemetry interval.
        Cycle next = cycle + 1;
        Cycle target = eq.nextEventCycle();
        if (target > next) {
            for (const auto &core : cores)
                target = std::min(target, core->nextTick());
            if (telemetry != nullptr)
                target = std::min(target, telemetry->nextBoundary() - 1);
            if (target != kCycleNever && target > next) {
                st.fastForwarded += target - next;
                next = target;
            }
        }
        cycle = next;
        if (cycle > max_cycles) {
            GPUMMU_FATAL("simulation exceeded ", max_cycles,
                         " cycles; deadlock or undersized budget");
        }
    }
    for (const auto &core : cores)
        core->settle(cycle + 1);
    st.endCycle = cycle;
    return st;
}

RunStats
GpuTop::run(Cycle max_cycles, Telemetry *telemetry)
{
    const CycleLoopStats loop =
        runCycleLoop(cores_, eq_, telemetry, nextBlock_,
                     launch_.totalBlocks, 0, max_cycles);
    const Cycle cycle = loop.endCycle;

    // Armed runs verify the drain invariants here: all blocking MMU
    // state (outstanding walks, drain waiters, queued batches) must
    // be gone once every core is idle, and every surviving TLB entry
    // must still match its reference walk. endKernel() also clears
    // transient walker state (stale port reservations) so a
    // follow-on kernel would start from a clean pipeline.
    for (auto &core : cores_)
        core->mmu().endKernel();

    // Fold the per-warp stall ledgers into their stalls.* histograms
    // before anyone dumps the registry.
    for (auto &core : cores_)
        core->finalizeRun();

    // Telemetry closes its tail interval and snapshots the stall
    // totals only after the ledgers above are folded.
    if (telemetry != nullptr)
        telemetry->finish(cycle, stats_);

    RunStats out;
    out.cycles = cycle;
    out.eventsFired = eq_.eventsFired();
    out.cyclesFastForwarded = loop.fastForwarded;
    out.coreTicks = loop.coreTicks;
    double tlb_lat_sum = 0.0;
    std::uint64_t tlb_lat_n = 0;
    double l1_lat_sum = 0.0;
    std::uint64_t l1_lat_n = 0;
    double pdiv_sum = 0.0;
    std::uint64_t pdiv_n = 0;
    for (auto &core : cores_) {
        out.instructions += core->instructionsIssued();
        out.memInstructions += core->memStage().memInstructions();
        out.tlbAccesses += core->mmu().tlb().accesses();
        out.tlbHits += core->mmu().tlb().hits();
        out.l1Accesses += core->l1().accesses();
        out.l1Hits += core->l1().hits();
        out.idleCycles += core->idleCycles();
        out.walkRefsIssued += core->mmu().walkers().refsIssued();
        out.walkRefsEliminated +=
            core->mmu().walkers().refsEliminated();

        const auto &tl = core->mmu().missLatency();
        tlb_lat_sum += static_cast<double>(tl.sum());
        tlb_lat_n += tl.count();
        const auto &cl = core->l1().missLatency();
        l1_lat_sum += static_cast<double>(cl.sum());
        l1_lat_n += cl.count();
        const auto &pd = core->memStage().pageDivergence();
        pdiv_sum += static_cast<double>(pd.sum());
        pdiv_n += pd.count();
        out.maxPageDivergence =
            std::max(out.maxPageDivergence, pd.max());
    }
    out.avgTlbMissLatency =
        tlb_lat_n ? tlb_lat_sum / static_cast<double>(tlb_lat_n) : 0.0;
    out.avgL1MissLatency =
        l1_lat_n ? l1_lat_sum / static_cast<double>(l1_lat_n) : 0.0;
    out.avgPageDivergence =
        pdiv_n ? pdiv_sum / static_cast<double>(pdiv_n) : 0.0;
    out.walkL2Accesses = mem_.walkAccesses();
    out.walkL2Hits = mem_.walkL2Hits();
    return out;
}

} // namespace gpummu
