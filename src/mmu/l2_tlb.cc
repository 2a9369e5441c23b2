#include "mmu/l2_tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "trace/trace.hh"

namespace gpummu {

L2Tlb::L2Tlb(const L2TlbConfig &cfg, const PageTable &pt,
             EventQueue &eq, unsigned page_shift)
    : cfg_(cfg), pageShift_(page_shift), eq_(eq),
      array_(cfg.entries, cfg.ways)
{
    GPUMMU_ASSERT(cfg.ports >= 1);
    GPUMMU_ASSERT(cfg.mshrs >= 1);
    GPUMMU_ASSERT(cfg.lookupInterval >= 1);
    portFreeAt_.assign(cfg.ports, 0);
    mshrs_.reserve(cfg.mshrs);
    if (cfg_.checkInvariants)
        checker_ = std::make_unique<InvariantChecker>(pt);
}

Cycle
L2Tlb::reservePort(Cycle now)
{
    // Deterministic arbitration: the earliest-free port wins, ties
    // broken by index.
    auto it = std::min_element(portFreeAt_.begin(), portFreeAt_.end());
    const Cycle issue = std::max(now, *it);
    *it = issue + cfg_.lookupInterval;
    return issue;
}

L2Tlb::AccessResult
L2Tlb::access(Vpn tag, Cycle now, WakeFn done)
{
    lookups_.inc();
    const Cycle issue = reservePort(now);
    const Cycle ready = issue + cfg_.hitLatency;

    // The miss-to-issue gap is port queueing; the stages below stamp
    // the disposition on top of it.
    if (probes_.spans)
        probes_.spans->stageAt(tag, SpanStage::L2Lookup, issue);

    auto res = array_.lookup(tag);
    if (res.hit) {
        hits_.inc();
        if (checker_)
            checker_->onTlbHit(tag, res.payload->ppn, pageShift_);
        if (probes_.trace)
            probes_.trace->instantAt(TraceCat::L2Tlb, "l2tlb_hit", tid_,
                                     issue, "vpn", tag);
        if (probes_.spans)
            probes_.spans->stageAt(tag, SpanStage::L2Hit, ready);
        HitWake *ev = hitArena_.create();
        ev->tlb = this;
        ev->tag = tag;
        ev->t = *res.payload;
        ev->ready = ready;
        ev->done = done;
        eq_.scheduleRaw(ready, &L2Tlb::fireHitWake, ev);
        return AccessResult{Outcome::Hit, ready};
    }

    if (probes_.trace)
        probes_.trace->instantAt(TraceCat::L2Tlb, "l2tlb_miss", tid_,
                                 issue, "vpn", tag);

    if (mshrs_.find(tag) != nullptr) {
        // Another core already walks this VPN; its fill wakes us.
        mshrMerges_.inc();
        if (checker_)
            checker_->onMshrMerge(tag);
        if (probes_.trace)
            probes_.trace->instantAt(TraceCat::L2Tlb, "mshr_merge", tid_,
                                     issue, "vpn", tag);
        // Beside the merge counter: merged-span count == mshr_merges.
        if (probes_.spans)
            probes_.spans->stageAt(tag, SpanStage::L2Merge, issue);
        mshrs_.wait(tag, done);
        return AccessResult{Outcome::Merged, ready};
    }

    if (mshrs_.size() >= cfg_.mshrs) {
        // Structural: no MSHR to track the walk, so the requester
        // walks uncovered. fillBypass() still installs the result.
        mshrBypasses_.inc();
        if (probes_.trace)
            probes_.trace->instantAt(TraceCat::L2Tlb, "mshr_bypass",
                                     tid_, issue, "vpn", tag);
        if (probes_.spans)
            probes_.spans->stageAt(tag, SpanStage::L2Bypass, issue);
        return AccessResult{Outcome::Bypass, ready};
    }

    if (checker_)
        checker_->onMshrAlloc(tag);
    if (probes_.trace) {
        probes_.trace->instantAt(TraceCat::L2Tlb, "mshr_alloc", tid_,
                                 issue, "vpn", tag);
        probes_.trace->counter(TraceCat::L2Tlb, "mshrs_active", tid_,
                               mshrs_.size() + 1);
    }
    if (probes_.spans)
        probes_.spans->stageAt(tag, SpanStage::L2NeedWalk, issue);
    mshrs_.open(Mshr{tag, false});
    mshrs_.wait(tag, done);
    return AccessResult{Outcome::NeedWalk, ready};
}

void
L2Tlb::fireHitWake(void *ctx, Cycle now)
{
    auto *ev = static_cast<HitWake *>(ctx);
    GPUMMU_ASSERT(now == ev->ready);
    // Release the node before the callback: done() may access() this
    // L2 again and needs the slot free for its own completion.
    L2Tlb *tlb = ev->tlb;
    const Vpn tag = ev->tag;
    const Translation t = ev->t;
    const Cycle ready = ev->ready;
    const WakeFn done = ev->done;
    tlb->hitArena_.destroy(ev);
    done(tag, t.ppn, t.isLarge, ready);
}

void
L2Tlb::install(Vpn tag, const Translation &t)
{
    if (checker_)
        checker_->onTlbFill(tag, t.ppn, t.isLarge, pageShift_);
    fills_.inc();
    if (probes_.trace)
        probes_.trace->instant(TraceCat::L2Tlb, "l2tlb_fill", tid_,
                               "vpn", tag, "ppn", t.ppn);
    auto victim = array_.insert(tag, t);
    if (victim) {
        evictions_.inc();
        if (probes_.trace)
            probes_.trace->instant(TraceCat::L2Tlb, "l2tlb_evict", tid_,
                                   "vpn", victim->tag);
        if (onEvict_)
            onEvict_(victim->tag);
    }
    if (checker_) {
        checker_->beginTlbSweep();
        array_.forEach([this](std::size_t set, std::uint64_t tg,
                              const Translation &e) {
            checker_->onTlbEntry(set, tg, e.ppn, e.isLarge,
                                 pageShift_);
        });
        checker_->endTlbSweep();
    }
}

void
L2Tlb::fill(Vpn tag, const Translation &t, Cycle ready)
{
    // A shootdown between the MSHR's walk issue and this fill poisons
    // the tag: the walk read the page table while the mapping was
    // live, so its waiters are still woken (their access predates the
    // unmap), but the now-stale translation must not be installed.
    Mshr mshr;
    std::size_t batch = 0;
    const bool found = mshrs_.close(tag, mshr, batch);
    GPUMMU_ASSERT(found, "L2 TLB fill for VPN ", tag, " without an MSHR");
    if (!mshr.poisoned)
        install(tag, t);
    wakeupsPerFill_.sample(mshrs_.batchSize(batch));
    if (probes_.trace)
        probes_.trace->counter(TraceCat::L2Tlb, "mshrs_active", tid_,
                               mshrs_.size());
    mshrs_.fire(batch, [&](const WakeFn &fn) {
        if (checker_)
            checker_->onMshrWake(tag);
        if (probes_.trace)
            probes_.trace->instant(TraceCat::L2Tlb, "mshr_wake", tid_,
                                   "vpn", tag);
        fn(tag, t.ppn, t.isLarge, ready);
    });
}

void
L2Tlb::fillBypass(Vpn tag, const Translation &t, Cycle ready)
{
    (void)ready;
    // An MSHR for this tag may exist by now: the bypass was granted
    // while the file was full, and another core allocated one for
    // the same VPN once slots freed. Leave it alone - its owning
    // walk will fill() and wake its waiters; the second install is
    // in-place.
    install(tag, t);
}

void
L2Tlb::flush()
{
    flushes_.inc();
    std::vector<Vpn> victims;
    array_.forEach([&victims](std::size_t, std::uint64_t tag,
                              const Translation &) {
        victims.push_back(tag);
    });
    array_.flush();
    for (Vpn tag : victims) {
        if (probes_.trace)
            probes_.trace->instant(TraceCat::L2Tlb, "l2tlb_evict", tid_,
                                   "vpn", tag);
        if (onEvict_)
            onEvict_(tag);
    }
}

std::size_t
L2Tlb::invalidateMatching(const std::function<bool(std::uint64_t)> &pred)
{
    auto victims = array_.removeIf(
        [&pred](std::uint64_t tag, const Translation &) {
            return pred(tag);
        });
    for (const auto &v : victims) {
        if (probes_.trace)
            probes_.trace->instant(TraceCat::L2Tlb, "l2tlb_evict", tid_,
                                   "vpn", v.tag);
        if (onEvict_)
            onEvict_(v.tag);
    }
    mshrs_.forEach([&pred](Mshr &m) {
        if (pred(m.key))
            m.poisoned = true;
    });
    return victims.size();
}

std::size_t
L2Tlb::poisonedMshrs() const
{
    std::size_t n = 0;
    mshrs_.forEach([&n](const Mshr &m) { n += m.poisoned; });
    return n;
}

void
L2Tlb::addCheckedSpace(Asid asid, const PageTable &pt)
{
    if (checker_)
        checker_->addSpace(asid, pt);
}

void
L2Tlb::checkEndOfKernel() const
{
    if (!checker_)
        return;
    Vpn first = ~Vpn{0};
    mshrs_.forEach([&first](const Mshr &m) {
        first = std::min(first, m.key);
    });
    GPUMMU_ASSERT(poisonedMshrs() == 0, poisonedMshrs(),
                  " poisoned MSHR tags never filled");
    GPUMMU_ASSERT(mshrs_.empty(), mshrs_.size(),
                  " translation MSHRs still live at kernel end "
                  "(first VPN ", first, ")");
    checker_->checkMshrsDrained();
    checker_->beginTlbSweep();
    array_.forEach([this](std::size_t set, std::uint64_t tag,
                          const Translation &e) {
        checker_->onTlbEntry(set, tag, e.ppn, e.isLarge, pageShift_);
    });
    checker_->endTlbSweep();
}

void
L2Tlb::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".lookups", &lookups_);
    reg.addCounter(prefix + ".hits", &hits_);
    reg.addCounter(prefix + ".mshr_merges", &mshrMerges_);
    reg.addCounter(prefix + ".mshr_bypasses", &mshrBypasses_);
    reg.addCounter(prefix + ".fills", &fills_);
    reg.addCounter(prefix + ".evictions", &evictions_);
    reg.addCounter(prefix + ".flushes", &flushes_);
    reg.addHistogram(prefix + ".wakeups_per_fill", &wakeupsPerFill_);
}

} // namespace gpummu
