#include "mmu/iommu.hh"

#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "vm/process.hh"

namespace gpummu {

Iommu::Iommu(const IommuConfig &cfg, AddressSpace &as,
             MemorySystem &mem, EventQueue &eq)
    : cfg_(cfg), as_(as), eq_(eq), tlb_(cfg.tlb),
      walkers_(cfg.ptw, as.pageTable(), mem, eq)
{
    GPUMMU_ASSERT(!as.usesLargePages() || true,
                  "IOMMU model translates at 4KB granularity");
    if (cfg_.checkInvariants) {
        checker_ = std::make_unique<InvariantChecker>(
            as_.pageTable(), as_.asid());
        tlb_.setChecker(checker_.get(), kPageShift4K);
        walkers_.setChecker(checker_.get());
    }
}

void
Iommu::attachProcesses(ProcessManager *pm)
{
    pm_ = pm;
    if (checker_ && pm_ != nullptr) {
        for (const auto &p : pm_->all())
            if (p->asid != as_.asid())
                checker_->addSpace(p->asid, p->as.pageTable());
    }
}

AddressSpace &
Iommu::spaceFor(Asid asid)
{
    if (asid == as_.asid())
        return as_;
    GPUMMU_ASSERT(pm_ != nullptr, "translate for ASID ", asid,
                  " without attachProcesses");
    return pm_->process(asid).as;
}

void
Iommu::issueWalk(Vpn key, Cycle at)
{
    const Asid asid = keyAsid(key);
    walkVpn_[0] = keyLocal(key);
    walkers_.requestBatchFor(spaceFor(asid).pageTable(), asid, walkVpn_,
                             at, PageWalkers::DoneFn{&Iommu::onWalkDone,
                                                     this});
}

void
Iommu::onWalkDone(void *ctx, Vpn walked, Asid asid, Cycle finish)
{
    auto *iommu = static_cast<Iommu *>(ctx);
    const Vpn key = asidKey(asid, walked);
    auto path = iommu->spaceFor(asid).pageTable().walk(walked);
    const std::uint64_t frame = path.result.ppn;
    iommu->tlb_.fill(key, Translation{frame, path.result.isLarge});
    Outstanding entry;
    std::size_t batch = 0;
    const bool found = iommu->outstanding_.close(key, entry, batch);
    GPUMMU_ASSERT(found, "IOMMU walk completion for unknown key ", key);
    iommu->missLatency_.sample(finish - entry.started);
    // The owning span and every request merged behind it fill and
    // retire at the same completion cycle.
    if (iommu->probes_.spans)
        iommu->probes_.spans->closeAllAt(key, SpanStage::Fill, finish);
    iommu->outstanding_.fire(batch, [&](const DoneFn &fn) {
        fn(frame, finish);
    });
}

void
Iommu::onFaultServiced(void *ctx, Cycle now)
{
    auto *ev = static_cast<FaultRetry *>(ctx);
    Iommu *iommu = ev->iommu;
    const Vpn key = ev->key;
    iommu->faultArena_.destroy(ev);
    iommu->spaceFor(keyAsid(key)).faultIn(keyLocal(key));
    iommu->issueWalk(key, now);
}

void
Iommu::translate(Vpn key, Cycle now, DoneFn done)
{
    // Shared lookup port: requests from all cores serialize here.
    const Cycle start = std::max(now, portFreeAt_);
    portFreeAt_ = start + cfg_.lookupInterval;
    const Cycle looked_up = start + cfg_.lookupLatency;

    // Depart -> probe is interconnect + port queueing; requests that
    // reach translate() directly (tests) open their span here.
    if (probes_.spans)
        probes_.spans->openOrStageAt(key, SpanStage::IommuLookup, start, tid_);

    auto res = tlb_.lookup(key, /*warp=*/-1);
    if (res.hit) {
        if (checker_)
            checker_->onTlbHit(key, res.ppn, kPageShift4K);
        if (probes_.spans)
            probes_.spans->closeNewestAt(key, SpanStage::IommuHit, looked_up);
        done(res.ppn, looked_up);
        return;
    }

    if (outstanding_.find(key) != nullptr) {
        mergedWalks_.inc();
        // Beside the merge counter: IommuMerge-stage span count ==
        // iommu merged_walks (conservation check).
        if (probes_.spans)
            probes_.spans->stageAt(key, SpanStage::IommuMerge, start);
        outstanding_.wait(key, done);
        return;
    }
    outstanding_.open(Outstanding{key, now});
    outstanding_.wait(key, done);

    const Asid asid = keyAsid(key);
    const Vpn vpn = keyLocal(key);
    AddressSpace &as = spaceFor(asid);
    if (pm_ != nullptr && !as.pageTable().translate(vpn)) {
        // Minor fault: the page is reserved but not yet backed. The
        // OS handler runs for faultLatency cycles, faults the page
        // in, and the walk then retries against the now-mapped PTE.
        GPUMMU_ASSERT(as.isReserved(vpn),
                      "IOMMU access to unreserved VPN ", vpn,
                      " (asid ", asid, ")");
        pm_->noteFault(asid);
        if (probes_.spans)
            probes_.spans->stageAt(key, SpanStage::IommuFault, looked_up);
        FaultRetry *ev = faultArena_.create();
        ev->iommu = this;
        ev->key = key;
        eq_.scheduleRaw(looked_up + pm_->osConfig().faultLatency,
                        &Iommu::onFaultServiced, ev);
        return;
    }

    issueWalk(key, looked_up);
}

void
Iommu::checkEndOfKernel() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(outstanding_.empty(), outstanding_.size(),
                  " VPNs still outstanding in the IOMMU at kernel "
                  "end");
    walkers_.checkDrained();
    tlb_.checkSweep();
}

void
Iommu::regStats(StatRegistry &reg, const std::string &prefix)
{
    tlb_.regStats(reg, prefix + ".tlb");
    walkers_.regStats(reg, prefix + ".ptw");
    reg.addCounter(prefix + ".merged_walks", &mergedWalks_);
    reg.addHistogram(prefix + ".miss_latency", &missLatency_);
}

} // namespace gpummu
