#include "mmu/mmu.hh"

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
                int warp_id, Cycle finish)
{
    tlb_.fill(asidKey(asid_, tag), Translation{frame_base, is_large},
              warp_id);

    auto it = outstanding_.find(tag);
    GPUMMU_ASSERT(it != outstanding_.end(),
                  "walk completion for unknown VPN");
    auto waiters = std::move(it->second);
    outstanding_.erase(it);
    if (outstanding_.empty() && missListener_)
        missListener_();

    auto start_it = missStart_.find(tag);
    GPUMMU_ASSERT(start_it != missStart_.end());
    missLatency_.sample(finish - start_it->second);
    missStart_.erase(start_it);

    // Every span that missed on this page - the walk owner plus each
    // merged requester - fills and retires at the same ready cycle.
    if (spans_)
        spans_->closeAllAt(asidKey(asid_, tag), SpanStage::Fill,
                           finish);

    for (auto &fn : waiters)
        fn(tag, frame_base, finish);

    if (outstanding_.empty() && !drainWaiters_.empty()) {
        auto drained = std::move(drainWaiters_);
        drainWaiters_.clear();
        for (auto &fn : drained)
            fn();
    }
}

void
Mmu::issueWalks(const std::vector<Vpn> &tags, int warp_id, Cycle at,
                ArenaRc<BypassTags> bypass_tags)
{
    // The walkers operate on 4KB-granularity VPNs; in large-page mode
    // the TLB tag is the 2MB VPN, so expand before walking.
    std::vector<Vpn> walk_vpns;
    walk_vpns.reserve(tags.size());
    const unsigned expand = pageShift_ - kPageShift4K;
    for (Vpn tag : tags)
        walk_vpns.push_back(tag << expand);

    walkers_.requestBatchFor(
        as_.pageTable(), asid_, walk_vpns, at,
        [this, warp_id,
         bypass_tags = std::move(bypass_tags)](Vpn vpn4k,
                                               Cycle finish) {
            const Vpn tag = vpn4k >> (pageShift_ - kPageShift4K);
            auto [frame_base, is_large] = resolveWalk(vpn4k);
            if (l2_ == nullptr) {
                finishWalk(tag, frame_base, is_large, warp_id, finish);
            } else if (bypass_tags && bypass_tags->contains(tag)) {
                // Walked uncovered (MSHR file was full): install the
                // result for later requesters, complete ourselves.
                l2_->fillBypass(asidKey(asid_, tag),
                                Translation{frame_base, is_large},
                                finish);
                finishWalk(tag, frame_base, is_large, warp_id, finish);
            } else {
                // The fill wakes every core merged behind the MSHR,
                // including this one (its wakeup runs finishWalk).
                l2_->fill(asidKey(asid_, tag),
                          Translation{frame_base, is_large}, finish);
            }
        });
}

void
Mmu::requestWalks(const std::vector<Vpn> &vpns, int warp_id, Cycle now,
                  WalkDoneFn done)
{
    GPUMMU_ASSERT(cfg_.enabled);
    const bool was_idle = outstanding_.empty();
    std::vector<Vpn> to_walk;
    to_walk.reserve(vpns.size());
    for (Vpn vpn : vpns) {
        auto it = outstanding_.find(vpn);
        if (it != outstanding_.end()) {
            // Another thread/warp already walks this page; piggyback.
            mergedWalks_.inc();
            // Beside the merge counter: MmuMerge-stage span count ==
            // merged_walks (conservation check).
            if (spans_)
                spans_->stageAt(asidKey(asid_, vpn),
                                SpanStage::MmuMerge, now);
            it->second.push_back(done);
            continue;
        }
        outstanding_[vpn].push_back(done);
        missStart_[vpn] = now;
        to_walk.push_back(vpn);
    }
    if (to_walk.empty())
        return;
    if (was_idle && missListener_)
        missListener_();

    if (l2_ == nullptr) {
        issueWalks(to_walk, warp_id, now, {});
        return;
    }

    // Shared L2 TLB on the miss path: hits and merges into other
    // cores' in-flight walks complete without touching this core's
    // walkers; the rest walk in one batch once the slowest lookup
    // has resolved (the L2 arbitrates its ports across cores).
    std::vector<Vpn> need_walk;
    ArenaRc<BypassTags> bypass_tags;
    Cycle walk_at = now;
    for (Vpn tag : to_walk) {
        auto res = l2_->access(
            asidKey(asid_, tag), now,
            [this, warp_id](Vpn t, std::uint64_t frame, bool large,
                            Cycle ready) {
                finishWalk(keyLocal(t), frame, large, warp_id, ready);
            });
        switch (res.outcome) {
          case L2Tlb::Outcome::Hit:
          case L2Tlb::Outcome::Merged:
            l2Satisfied_.inc();
            break;
          case L2Tlb::Outcome::Bypass:
            if (!bypass_tags)
                bypass_tags = bypassArena_.createRc();
            bypass_tags->insert(tag);
            [[fallthrough]];
          case L2Tlb::Outcome::NeedWalk:
            need_walk.push_back(tag);
            walk_at = std::max(walk_at, res.ready);
            break;
        }
    }
    if (!need_walk.empty())
        issueWalks(need_walk, warp_id, walk_at, std::move(bypass_tags));
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
    GPUMMU_ASSERT(missStart_.empty(),
                  "miss-start timestamps leaked past kernel end");
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
