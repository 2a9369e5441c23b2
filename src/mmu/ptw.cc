#include "mmu/ptw.hh"

#include <algorithm>

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
    walkerBatch_.resize(walkerBusy_.size());
    for (unsigned w = 0; w < walkerBatch_.size(); ++w) {
        walkerBatch_[w].pool = this;
        walkerBatch_[w].walker = w;
    }
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

PageWalkers::PendingWalk
PageWalkers::popQueued()
{
    GPUMMU_ASSERT(queued() > 0);
    const PendingWalk walk = queue_[queueHead_++];
    if (queueHead_ == queue_.size()) {
        queue_.clear();
        queueHead_ = 0;
    } else if (queueHead_ >= 64 && 2 * queueHead_ >= queue_.size()) {
        // A long-lived backlog: drop the consumed prefix in bulk.
        queue_.erase(queue_.begin(),
                     queue_.begin() +
                         static_cast<std::ptrdiff_t>(queueHead_));
        queueHead_ = 0;
    }
    return walk;
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
        if (queued() == 0)
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
    ActiveBatch &batch = walkerBatch_[w];
    batch.clear();
    batch.walks.push_back(popQueued());
    const PendingWalk &walk = batch.walks.back();
    const WalkPath path = walk.pt->walk(walk.vpn);
    for (unsigned level = 0; level < path.levels; ++level) {
        BatchRef ref;
        ref.line = lineAddrOf(path.entryAddrs[level]);
        if (level + 1 == path.levels) {
            ref.finBegin = static_cast<std::uint32_t>(batch.finishers.size());
            batch.finishers.push_back(0);
            ref.finEnd = ref.finBegin + 1;
        }
        batch.refs.push_back(ref);
        batch.levelEnd.push_back(static_cast<std::uint32_t>(batch.refs.size()));
    }
    ++inFlight_;
    if (probes_.trace) {
        probes_.trace->instantAt(TraceCat::Ptw, "walk_grant", tid_, now,
                                 "vpn", walk.vpn, "walker", w);
        probes_.trace->counter(TraceCat::Ptw, "walks_in_flight", tid_,
                               inFlight_);
    }
    // Enqueue -> grant is the walker-queueing portion of the span.
    if (probes_.spans) {
        probes_.spans->stageAt(asidKey(walk.asid, walk.vpn >> spanKeyShift_),
                               SpanStage::WalkGrant, now);
    }
    walkerBusy_[w] = true;
    stepLevel(&batch, now);
}

void
PageWalkers::startScheduledBatch(unsigned w, Cycle now)
{
    GPUMMU_ASSERT(queued() > 0);
    batches_.inc();
    ActiveBatch &batch = walkerBatch_[w];
    batch.clear();

    // Snapshot every queued walk into this batch (the MSHR scan).
    while (queued() > 0) {
        batch.walks.push_back(popQueued());
        const PendingWalk &walk = batch.walks.back();
        batch.paths.push_back(walk.pt->walk(walk.vpn));
    }
    inFlight_ += static_cast<unsigned>(batch.walks.size());
    if (probes_.trace) {
        for (const PendingWalk &walk : batch.walks)
            probes_.trace->instantAt(TraceCat::Ptw, "walk_grant", tid_,
                                     now, "vpn", walk.vpn, "walker", w);
        probes_.trace->counter(TraceCat::Ptw, "walks_in_flight", tid_,
                               inFlight_);
    }
    if (probes_.spans) {
        for (const PendingWalk &walk : batch.walks)
            probes_.spans->stageAt(asidKey(walk.asid,
                                           walk.vpn >> spanKeyShift_),
                                   SpanStage::WalkGrant, now);
    }

    unsigned max_levels = 0;
    for (const auto &p : batch.paths)
        max_levels = std::max(max_levels, p.levels);

    std::vector<LevelRef> &sorted = levelScratch_;
    for (unsigned level = 0; level < max_levels; ++level) {
        // Comparator tree: collapse exact repeats, and issue
        // same-line entries back to back so the later ones hit the
        // walk cache or the L2 line just fetched (Figs. 8-9). Sorting
        // by (line, entry, walk) gives that issue order, with each
        // entry's finishing walks in request order.
        sorted.clear();
        for (std::size_t i = 0; i < batch.paths.size(); ++i) {
            const WalkPath &p = batch.paths[i];
            if (level < p.levels) {
                const PhysAddr addr = p.entryAddrs[level];
                sorted.push_back({lineAddrOf(addr), addr,
                                  static_cast<std::uint32_t>(i)});
            }
        }
        std::sort(sorted.begin(), sorted.end());
        const std::size_t level_begin = batch.refs.size();
        for (std::size_t k = 0; k < sorted.size(); ++k) {
            const LevelRef &r = sorted[k];
            if (k == 0 || r.addr != sorted[k - 1].addr ||
                r.line != sorted[k - 1].line) {
                BatchRef ref;
                ref.line = r.line;
                ref.finBegin =
                    static_cast<std::uint32_t>(batch.finishers.size());
                ref.finEnd = ref.finBegin;
                batch.refs.push_back(ref);
            }
            if (level + 1 == batch.paths[r.walk].levels) {
                batch.finishers.push_back(r.walk);
                batch.refs.back().finEnd =
                    static_cast<std::uint32_t>(batch.finishers.size());
            }
        }
        batch.levelEnd.push_back(static_cast<std::uint32_t>(batch.refs.size()));
        const std::size_t issued = batch.refs.size() - level_begin;
        GPUMMU_ASSERT(sorted.size() >= issued);
        refsEliminated_.inc(sorted.size() - issued);
    }

    walkerBusy_[w] = true;
    stepLevel(&batch, now);
}

void
PageWalkers::fireStepLevel(void *ctx, Cycle now)
{
    auto *batch = static_cast<ActiveBatch *>(ctx);
    batch->pool->stepLevel(batch, now);
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
    // Release the node before the callback: done() may start new
    // walks, and the recycled slot must be free for them.
    const DoneFn done = ev->done;
    const Vpn vpn = ev->vpn;
    const Asid asid = ev->asid;
    const Cycle ready = ev->ready;
    pool->doneArena_.destroy(ev);
    done(vpn, asid, ready);
}

void
PageWalkers::stepLevel(ActiveBatch *batch, Cycle now)
{
    // One event per radix level: a level's references pipeline at
    // the port rate, the next level waits for this one (the pointer
    // chase). Requests enter the shared memory system near the
    // current simulated cycle; computing the whole batch's
    // timestamps up front would reserve L2/DRAM bandwidth far into
    // the future and distort every other client's latency.
    if (batch->nextLevel >= batch->levelEnd.size()) {
        batch->clear();
        walkerBusy_[batch->walker] = false;
        pump(now);
        return;
    }
    const unsigned level_idx = static_cast<unsigned>(batch->nextLevel);
    const std::uint32_t begin =
        level_idx == 0 ? 0 : batch->levelEnd[level_idx - 1];
    const std::uint32_t end = batch->levelEnd[batch->nextLevel++];
    Cycle level_end = now;
    for (std::uint32_t r = begin; r < end; ++r) {
        const BatchRef &ref = batch->refs[r];
        const Cycle ready = walkRef(ref.line, level_idx, now);
        level_end = std::max(level_end, ready);
        for (std::uint32_t f = ref.finBegin; f < ref.finEnd; ++f) {
            const PendingWalk &walk = batch->walks[batch->finishers[f]];
            walks_.inc();
            walkLatency_.sample(ready - walk.enqueued);
            if (probes_.spans)
                probes_.spans->stageAt(asidKey(walk.asid,
                                               walk.vpn >> spanKeyShift_),
                                       SpanStage::WalkDone, ready);
            if (probes_.heat)
                probes_.heat->onWalkComplete(asidKey(walk.asid, walk.vpn),
                                             tid_, walk.enqueued, ready);
            WalkDone *ev = doneArena_.create();
            ev->pool = this;
            ev->vpn = walk.vpn;
            ev->asid = walk.asid;
            ev->ready = ready;
            ev->enqueued = walk.enqueued;
            ev->done = walk.done;
            eq_.scheduleRaw(ready, &PageWalkers::fireWalkDone, ev);
        }
    }
    eq_.scheduleRaw(level_end, &PageWalkers::fireStepLevel, batch);
}

void
PageWalkers::checkDrained() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(!busy(), "walker pool busy at kernel end: ",
                  inFlight_, " in flight, ", queued(), " queued");
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
                  inFlight_, " in flight, ", queued(), " queued");
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
