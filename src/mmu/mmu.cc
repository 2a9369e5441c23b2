#include "mmu/mmu.hh"

#include <algorithm>

#include "mmu/l2_tlb.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"

namespace gpummu {

Mmu::Mmu(const MmuConfig &cfg, AddressSpace &as, MemorySystem &mem,
         EventQueue &eq)
    : cfg_(cfg), as_(as),
      pageShift_(as.usesLargePages() ? kPageShift2M : kPageShift4K),
      asid_(as.asid()), tlb_(cfg.tlb),
      walkers_(cfg.ptw, as.pageTable(), mem, eq)
{
    if (cfg_.checkInvariants) {
        checker_ = std::make_unique<InvariantChecker>(
            as_.pageTable(), asid_);
        tlb_.setChecker(checker_.get(), pageShift_);
        walkers_.setChecker(checker_.get());
    }
    outstanding_.reserve(cfg_.mshrs);
}

PhysAddr
Mmu::magicTranslate(VirtAddr va) const
{
    auto t = as_.pageTable().translate(va >> kPageShift4K);
    GPUMMU_ASSERT(t.has_value(), "access to unmapped VA ", va);
    return (t->ppn << kPageShift4K) | (va & (kPageSize4K - 1));
}

Mmu::BatchResult
Mmu::lookupBatch(const std::vector<Vpn> &vpns, int warp_id)
{
    BatchResult out;
    lookupBatchInto(out, vpns, warp_id);
    return out;
}

void
Mmu::lookupBatchInto(BatchResult &out, const std::vector<Vpn> &vpns,
                     int warp_id)
{
    GPUMMU_ASSERT(cfg_.enabled, "lookupBatch on a disabled MMU");
    out.lookups.clear();
    out.extraCycles = 0;
    out.allHit = true;
    out.lookups.reserve(vpns.size());
    for (Vpn vpn : vpns) {
        auto res = tlb_.lookup(asidKey(asid_, vpn), warp_id);
        if (res.hit && checker_)
            checker_->onTlbHit(asidKey(asid_, vpn), res.ppn,
                               pageShift_);
        VpnLookup vl;
        vl.vpn = vpn;
        vl.hit = res.hit;
        vl.depth = res.depth;
        vl.frameBase = res.ppn;
        vl.history = res.history;
        vl.historyUsed = res.historyUsed;
        out.allHit = out.allHit && res.hit;
        out.lookups.push_back(vl);
    }

    // Port serialization: the first `ports` lookups ride along with
    // the L1 access for free; each further group of `ports` costs a
    // cycle. Oversized or overported arrays cost CACTI penalties on
    // every access.
    const unsigned ports = cfg_.tlb.ports;
    if (!vpns.empty()) {
        const Cycle groups =
            (static_cast<Cycle>(vpns.size()) + ports - 1) / ports;
        out.extraCycles = (groups - 1) +
                          cfg_.cacti.accessPenalty(cfg_.tlb.entries,
                                                   cfg_.tlb.ports);
    }
}

bool
Mmu::memAvailable() const
{
    if (!cfg_.enabled)
        return true;
    if (cfg_.hitUnderMiss)
        return true;
    return outstanding_.empty();
}

bool
Mmu::canStartMisses(std::size_t count) const
{
    if (!cfg_.enabled)
        return false;
    // No miss-under-miss: a new miss set may start only when the MMU
    // has fully drained (the paper leaves more aggressive support to
    // future work). A single warp's simultaneous misses count as one
    // "original miss" and always start together.
    if (!outstanding_.empty())
        return false;
    return count <= cfg_.mshrs;
}

void
Mmu::onDrain(std::function<void()> fn)
{
    GPUMMU_ASSERT(!outstanding_.empty(),
                  "onDrain with no outstanding walks would never fire");
    drainWaiters_.push_back(std::move(fn));
}

void
Mmu::setL2Tlb(L2Tlb *l2)
{
    GPUMMU_ASSERT(cfg_.enabled,
                  "an L2 TLB behind a disabled MMU is unreachable");
    GPUMMU_ASSERT(outstanding_.empty(),
                  "setL2Tlb with walks already outstanding");
    GPUMMU_ASSERT(l2 == nullptr || l2->pageShift() == pageShift_,
                  "shared L2 TLB granularity mismatch");
    l2_ = l2;
}

std::pair<std::uint64_t, bool>
Mmu::resolveWalk(Vpn vpn4k)
{
    auto path = as_.pageTable().walk(vpn4k);
    Translation t = path.result;
    const std::uint64_t frame_base =
        t.isLarge ? (t.ppn >> (kPageShift2M - kPageShift4K)) : t.ppn;
    GPUMMU_ASSERT(t.isLarge == as_.usesLargePages(),
                  "page size mismatch between walk and MMU");
    return {frame_base, t.isLarge};
}

bool
Mmu::probeTlb(Vpn vpn) const
{
    return tlb_.probe(asidKey(asid_, vpn));
}

void
Mmu::finishWalk(Vpn tag, std::uint64_t frame_base, bool is_large,
                Cycle finish)
{
    Outstanding entry;
    std::size_t batch = 0;
    const bool found = outstanding_.close(tag, entry, batch);
    GPUMMU_ASSERT(found, "walk completion for unknown VPN");
    tlb_.fill(asidKey(asid_, tag), Translation{frame_base, is_large},
              entry.warp);
    if (outstanding_.empty() && missListener_)
        missListener_();

    missLatency_.sample(finish - entry.start);

    // Every span that missed on this page - the walk owner plus each
    // merged requester - fills and retires at the same ready cycle.
    if (probes_.spans)
        probes_.spans->closeAllAt(asidKey(asid_, tag), SpanStage::Fill,
                                  finish);

    outstanding_.fire(batch, [&](const WalkDoneFn &fn) {
        fn(tag, frame_base, finish);
    });

    if (outstanding_.empty() && !drainWaiters_.empty()) {
        // Waiters registered while these run wait for the next drain.
        const std::size_t n = drainWaiters_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::function<void()> fn = std::move(drainWaiters_[i]);
            fn();
        }
        drainWaiters_.erase(drainWaiters_.begin(),
                            drainWaiters_.begin() +
                                static_cast<std::ptrdiff_t>(n));
    }
}

void
Mmu::onWalkDone(void *ctx, Vpn vpn4k, Asid, Cycle finish)
{
    auto *mmu = static_cast<Mmu *>(ctx);
    const Vpn tag = vpn4k >> (mmu->pageShift_ - kPageShift4K);
    auto [frame_base, is_large] = mmu->resolveWalk(vpn4k);
    L2Tlb *l2 = mmu->l2_;
    if (l2 == nullptr) {
        mmu->finishWalk(tag, frame_base, is_large, finish);
        return;
    }
    const Outstanding *entry = mmu->outstanding_.find(tag);
    GPUMMU_ASSERT(entry != nullptr, "walk completion for unknown VPN");
    const Vpn key = asidKey(mmu->asid_, tag);
    if (entry->bypass) {
        // Walked uncovered (MSHR file was full): install the result
        // for later requesters, complete ourselves.
        l2->fillBypass(key, Translation{frame_base, is_large}, finish);
        mmu->finishWalk(tag, frame_base, is_large, finish);
    } else {
        // The fill wakes every core merged behind the MSHR, including
        // this one (its wakeup runs finishWalk).
        l2->fill(key, Translation{frame_base, is_large}, finish);
    }
}

void
Mmu::onL2Wake(void *ctx, Vpn key, std::uint64_t frame_base,
              bool is_large, Cycle ready)
{
    static_cast<Mmu *>(ctx)->finishWalk(keyLocal(key), frame_base,
                                        is_large, ready);
}

void
Mmu::issueWalks(const std::vector<Vpn> &tags, Cycle at)
{
    // The walkers operate on 4KB-granularity VPNs; in large-page mode
    // the TLB tag is the 2MB VPN, so expand before walking.
    walkVpns_.clear();
    const unsigned expand = pageShift_ - kPageShift4K;
    for (Vpn tag : tags)
        walkVpns_.push_back(tag << expand);
    walkers_.requestBatchFor(as_.pageTable(), asid_, walkVpns_, at,
                             PageWalkers::DoneFn{&Mmu::onWalkDone, this});
}

void
Mmu::requestWalks(const std::vector<Vpn> &vpns, int warp_id, Cycle now,
                  WalkDoneFn done)
{
    GPUMMU_ASSERT(cfg_.enabled);
    const bool was_idle = outstanding_.empty();
    toWalk_.clear();
    for (Vpn vpn : vpns) {
        if (outstanding_.find(vpn) != nullptr) {
            // Another thread/warp already walks this page; piggyback.
            mergedWalks_.inc();
            // Beside the merge counter: MmuMerge-stage span count ==
            // merged_walks (conservation check).
            if (probes_.spans)
                probes_.spans->stageAt(asidKey(asid_, vpn),
                                       SpanStage::MmuMerge, now);
            outstanding_.wait(vpn, done);
            continue;
        }
        outstanding_.open(Outstanding{vpn, now, warp_id, false});
        outstanding_.wait(vpn, done);
        toWalk_.push_back(vpn);
    }
    if (toWalk_.empty())
        return;
    if (was_idle && missListener_)
        missListener_();

    if (l2_ == nullptr) {
        issueWalks(toWalk_, now);
        return;
    }

    // Shared L2 TLB on the miss path: hits and merges into other
    // cores' in-flight walks complete without touching this core's
    // walkers; the rest walk in one batch once the slowest lookup
    // has resolved (the L2 arbitrates its ports across cores).
    needWalk_.clear();
    Cycle walk_at = now;
    for (Vpn tag : toWalk_) {
        auto res = l2_->access(asidKey(asid_, tag), now,
                               L2Tlb::WakeFn{&Mmu::onL2Wake, this});
        switch (res.outcome) {
          case L2Tlb::Outcome::Hit:
          case L2Tlb::Outcome::Merged:
            l2Satisfied_.inc();
            break;
          case L2Tlb::Outcome::Bypass:
            outstanding_.find(tag)->bypass = true;
            [[fallthrough]];
          case L2Tlb::Outcome::NeedWalk:
            needWalk_.push_back(tag);
            walk_at = std::max(walk_at, res.ready);
            break;
        }
    }
    if (!needWalk_.empty())
        issueWalks(needWalk_, walk_at);
}

void
Mmu::shootdown()
{
    shootdowns_.inc();
    tlb_.flush();
    if (l2_ != nullptr)
        l2_->flush();
}

void
Mmu::checkEndOfKernel() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(outstanding_.empty(), outstanding_.size(),
                  " VPNs still outstanding in the MMU at kernel end");
    GPUMMU_ASSERT(drainWaiters_.empty(), drainWaiters_.size(),
                  " warps still blocked on a TLB drain at kernel end");
    walkers_.checkDrained();
    tlb_.checkSweep();
}

void
Mmu::endKernel()
{
    checkEndOfKernel();
    walkers_.onKernelDrained();
}

void
Mmu::regStats(StatRegistry &reg, const std::string &prefix)
{
    tlb_.regStats(reg, prefix + ".tlb");
    walkers_.regStats(reg, prefix + ".ptw");
    reg.addCounter(prefix + ".merged_walks", &mergedWalks_);
    reg.addCounter(prefix + ".shootdowns", &shootdowns_);
    reg.addCounter(prefix + ".l2tlb_satisfied", &l2Satisfied_);
    reg.addHistogram(prefix + ".miss_latency", &missLatency_);
}

} // namespace gpummu
