#include "mmu/ptw.hh"

#include <algorithm>
#include <map>

#include "check/invariant_checker.hh"
#include "mem/request.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace gpummu {

PageWalkers::PageWalkers(const PtwConfig &cfg, const PageTable &pt,
                         MemorySystem &mem, EventQueue &eq)
    : cfg_(cfg), pt_(pt), mem_(mem), eq_(eq),
      pwc_(std::max<std::size_t>(cfg.pwcLines, 1),
           std::min(cfg.pwcWays,
                    std::max<std::size_t>(cfg.pwcLines, 1)))
{
    GPUMMU_ASSERT(cfg.numWalkers >= 1);
    walkerBusy_.assign(cfg.scheduling ? 1 : cfg.numWalkers, false);
}

Cycle
PageWalkers::walkRef(PhysAddr line_addr, unsigned level, Cycle at)
{
    // All walkers share one issue port into the memory system.
    const Cycle issue = std::max(at, portFreeAt_);
    portFreeAt_ = issue + cfg_.portInterval;
    refsIssued_.inc();
    if (probes_.trace)
        probes_.trace->instantAt(TraceCat::Ptw, "walk_ref", tid_, issue,
                                 "line", line_addr);
    if (checker_)
        checker_->onPagingLine(line_addr, kLineShift);
    if (cfg_.pwcLines > 0) {
        auto res = pwc_.lookup(line_addr);
        if (res.hit) {
            pwcHits_.inc();
            if (probes_.heat)
                probes_.heat->onWalkRef(line_addr, level, tid_,
                                        HeatProfiler::RefWhere::Pwc);
            if (probes_.spans)
                probes_.spans->walkRef(level, SpanWalkRef::Pwc);
            // The line enters the cache when its fetch is *issued*,
            // so a hit may land while the fill is still in flight
            // from memory; such a hit cannot complete before the
            // fill does (no hit-under-fill optimism).
            return std::max(issue + cfg_.pwcHitLatency, *res.payload);
        }
    }
    auto out =
        mem_.access(line_addr, false, issue, AccessSource::PageWalk);
    if (probes_.heat)
        probes_.heat->onWalkRef(line_addr, level, tid_,
                                out.dram ? HeatProfiler::RefWhere::Dram
                                         : HeatProfiler::RefWhere::L2);
    // Mirrors the heat classification exactly: span walk-ref totals
    // == ptw refs_issued (conservation check).
    if (probes_.spans)
        probes_.spans->walkRef(level, out.dram ? SpanWalkRef::Dram
                                               : SpanWalkRef::L2);
    if (cfg_.pwcLines > 0)
        pwc_.insert(line_addr, out.readyAt);
    return out.readyAt;
}

void
PageWalkers::requestBatch(const std::vector<Vpn> &vpns, Cycle now,
                          DoneFn done)
{
    requestBatchFor(pt_, 0, vpns, now, std::move(done));
}

void
PageWalkers::requestBatchFor(const PageTable &pt, Asid asid,
                             const std::vector<Vpn> &vpns, Cycle now,
                             DoneFn done)
{
    for (Vpn vpn : vpns) {
        if (checker_)
            checker_->onWalkEnqueued(asidKey(asid, vpn));
        if (probes_.trace)
            probes_.trace->instantAt(TraceCat::Ptw, "walk_enqueue",
                                     tid_, now, "vpn", vpn);
        if (probes_.spans)
            probes_.spans->stageAt(asidKey(asid, vpn >> spanKeyShift_),
                                   SpanStage::WalkEnqueue, now);
        queue_.push_back(PendingWalk{vpn, now, done, &pt, asid});
    }
    pump(now);
}

std::size_t
PageWalkers::invalidatePagingLines(const PageTable &pt)
{
    const auto victims =
        pwc_.removeIf([&pt](std::uint64_t line, const Cycle &) {
            return pt.isTableFrame((line << kLineShift) >>
                                   kPageShift4K);
        });
    return victims.size();
}

void
PageWalkers::pump(Cycle now)
{
    for (unsigned w = 0; w < walkerBusy_.size(); ++w) {
        if (queue_.empty())
            return;
        if (walkerBusy_[w])
            continue;
        if (cfg_.scheduling)
            startScheduledBatch(w, now);
        else
            startNaive(w, now);
    }
}

void
PageWalkers::startNaive(unsigned w, Cycle now)
{
    GPUMMU_ASSERT(!queue_.empty());
    ActiveBatch *batch = batchArena_.create();
    batch->pool = this;
    PendingWalk walk = std::move(queue_.front());
    queue_.pop_front();
    const WalkPath path = walk.pt->walk(walk.vpn);
    for (unsigned level = 0; level < path.levels; ++level) {
        BatchRef ref;
        ref.line = lineAddrOf(path.entryAddrs[level]);
        if (level + 1 == path.levels)
            ref.finishing.push_back(0);
        batch->levels.push_back({std::move(ref)});
    }
    batch->walks.push_back(std::move(walk));
    ++inFlight_;
    if (probes_.trace) {
        probes_.trace->instantAt(TraceCat::Ptw, "walk_grant", tid_, now,
                                 "vpn", batch->walks.back().vpn, "walker", w);
        probes_.trace->counter(TraceCat::Ptw, "walks_in_flight", tid_,
                               inFlight_);
    }
    // Enqueue -> grant is the walker-queueing portion of the span.
    if (probes_.spans) {
        const PendingWalk &walk = batch->walks.back();
        probes_.spans->stageAt(asidKey(walk.asid, walk.vpn >> spanKeyShift_),
                               SpanStage::WalkGrant, now);
    }
    walkerBusy_[w] = true;
    stepLevel(w, batch, now);
}

void
PageWalkers::startScheduledBatch(unsigned w, Cycle now)
{
    GPUMMU_ASSERT(!queue_.empty());
    batches_.inc();
    ActiveBatch *batch = batchArena_.create();
    batch->pool = this;

    // Snapshot every queued walk into this batch (the MSHR scan).
    std::vector<WalkPath> paths;
    while (!queue_.empty()) {
        batch->walks.push_back(std::move(queue_.front()));
        queue_.pop_front();
        const PendingWalk &walk = batch->walks.back();
        paths.push_back(walk.pt->walk(walk.vpn));
    }
    inFlight_ += static_cast<unsigned>(batch->walks.size());
    if (probes_.trace) {
        for (const PendingWalk &walk : batch->walks)
            probes_.trace->instantAt(TraceCat::Ptw, "walk_grant", tid_,
                                     now, "vpn", walk.vpn, "walker", w);
        probes_.trace->counter(TraceCat::Ptw, "walks_in_flight", tid_,
                               inFlight_);
    }
    if (probes_.spans) {
        for (const PendingWalk &walk : batch->walks)
            probes_.spans->stageAt(asidKey(walk.asid,
                                           walk.vpn >> spanKeyShift_),
                                   SpanStage::WalkGrant, now);
    }

    unsigned max_levels = 0;
    for (const auto &p : paths)
        max_levels = std::max(max_levels, p.levels);

    for (unsigned level = 0; level < max_levels; ++level) {
        // Comparator tree: collapse exact repeats, and issue
        // same-line entries back to back so the later ones hit the
        // walk cache or the L2 line just fetched (Figs. 8-9).
        std::map<PhysAddr,
                 std::map<PhysAddr, std::vector<std::size_t>>>
            lines;
        unsigned raw_refs = 0;
        for (std::size_t i = 0; i < paths.size(); ++i) {
            if (level >= paths[i].levels)
                continue;
            ++raw_refs;
            const PhysAddr addr = paths[i].entryAddrs[level];
            auto &finishers = lines[lineAddrOf(addr)][addr];
            if (level + 1 == paths[i].levels)
                finishers.push_back(i);
        }
        unsigned issued = 0;
        std::vector<BatchRef> level_refs;
        for (auto &[line, addrs] : lines) {
            for (auto &[addr, finishers] : addrs) {
                (void)addr;
                BatchRef ref;
                ref.line = line;
                ref.finishing = std::move(finishers);
                level_refs.push_back(std::move(ref));
                ++issued;
            }
        }
        batch->levels.push_back(std::move(level_refs));
        GPUMMU_ASSERT(raw_refs >= issued);
        refsEliminated_.inc(raw_refs - issued);
    }

    walkerBusy_[w] = true;
    stepLevel(w, batch, now);
}

void
PageWalkers::fireStepLevel(void *ctx, Cycle now)
{
    auto *batch = static_cast<ActiveBatch *>(ctx);
    batch->pool->stepLevel(batch->walker, batch, now);
}

void
PageWalkers::fireWalkDone(void *ctx, Cycle now)
{
    auto *ev = static_cast<WalkDone *>(ctx);
    PageWalkers *pool = ev->pool;
    GPUMMU_ASSERT(now == ev->ready);
    GPUMMU_ASSERT(pool->inFlight_ > 0);
    --pool->inFlight_;
    if (pool->probes_.trace) {
        pool->probes_.trace->span(TraceCat::Ptw, "page_walk", pool->tid_,
                                  ev->enqueued, ev->ready - ev->enqueued,
                                  "vpn", ev->vpn);
        pool->probes_.trace->counter(TraceCat::Ptw, "walks_in_flight",
                                     pool->tid_, pool->inFlight_);
    }
    if (pool->checker_)
        pool->checker_->onWalkCompleted(asidKey(ev->asid, ev->vpn));
    // Move the callback out before releasing the node: done() may
    // start new walks, and the recycled slot must be free for them.
    DoneFn done = std::move(ev->done);
    const Vpn vpn = ev->vpn;
    const Cycle ready = ev->ready;
    pool->doneArena_.destroy(ev);
    done(vpn, ready);
}

void
PageWalkers::stepLevel(unsigned w, ActiveBatch *batch, Cycle now)
{
    // One event per radix level: a level's references pipeline at
    // the port rate, the next level waits for this one (the pointer
    // chase). Requests enter the shared memory system near the
    // current simulated cycle; computing the whole batch's
    // timestamps up front would reserve L2/DRAM bandwidth far into
    // the future and distort every other client's latency.
    if (batch->nextLevel >= batch->levels.size()) {
        batchArena_.destroy(batch);
        walkerBusy_[w] = false;
        pump(now);
        return;
    }
    const unsigned level_idx =
        static_cast<unsigned>(batch->nextLevel);
    const auto &level = batch->levels[batch->nextLevel++];
    Cycle level_end = now;
    for (const BatchRef &ref : level) {
        const Cycle ready = walkRef(ref.line, level_idx, now);
        level_end = std::max(level_end, ready);
        for (std::size_t idx : ref.finishing) {
            PendingWalk &walk = batch->walks[idx];
            walks_.inc();
            walkLatency_.sample(ready - walk.enqueued);
            if (probes_.spans)
                probes_.spans->stageAt(asidKey(walk.asid,
                                               walk.vpn >> spanKeyShift_),
                                       SpanStage::WalkDone, ready);
            if (probes_.heat)
                probes_.heat->onWalkComplete(asidKey(walk.asid, walk.vpn),
                                             tid_, walk.enqueued, ready);
            // Each walk finishes exactly once, so its done callback
            // can move into the completion node.
            WalkDone *ev = doneArena_.create();
            ev->pool = this;
            ev->vpn = walk.vpn;
            ev->asid = walk.asid;
            ev->ready = ready;
            ev->enqueued = walk.enqueued;
            ev->done = std::move(walk.done);
            eq_.scheduleRaw(ready, &PageWalkers::fireWalkDone, ev);
        }
    }
    batch->walker = w;
    eq_.scheduleRaw(level_end, &PageWalkers::fireStepLevel, batch);
}

void
PageWalkers::checkDrained() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(!busy(), "walker pool busy at kernel end: ",
                  inFlight_, " in flight, ", queue_.size(), " queued");
    checker_->checkWalksDrained();
    pwc_.forEach([this](std::size_t, std::uint64_t line, Cycle) {
        checker_->onPagingLine(line, kLineShift);
    });
}

void
PageWalkers::onKernelDrained()
{
    GPUMMU_ASSERT(!busy(),
                  "kernel-boundary reset with walks in flight: ",
                  inFlight_, " in flight, ", queue_.size(), " queued");
    portFreeAt_ = 0;
}

void
PageWalkers::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".walks", &walks_);
    reg.addCounter(prefix + ".refs_issued", &refsIssued_);
    reg.addCounter(prefix + ".refs_eliminated", &refsEliminated_);
    reg.addCounter(prefix + ".batches", &batches_);
    reg.addCounter(prefix + ".pwc_hits", &pwcHits_);
    reg.addHistogram(prefix + ".walk_latency", &walkLatency_);
}

} // namespace gpummu
