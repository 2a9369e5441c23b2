/**
 * @file
 * Hardware page table walkers, naive and scheduled.
 *
 * Naive mode reproduces the paper's strawman: K independent walkers,
 * each performing one serial four-reference x86 walk at a time;
 * concurrent TLB misses queue behind them.
 *
 * Scheduled mode implements the paper's PTW scheduling contribution
 * (Figs. 8-9): all pending walks are processed level by level through
 * one comparator tree. Exactly repeated references (same PML4/PDP/PD
 * entry) are issued once, and distinct PTEs falling on one 128-byte
 * line are issued back to back so the later ones hit in the shared
 * L2. The paper's 3-walk example drops from 12 loads to 7; the unit
 * tests check that exact case.
 */

#ifndef MMU_PTW_HH
#define MMU_PTW_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/arena.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/probes.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace gpummu {

class InvariantChecker;

struct PtwConfig
{
    /** Independent naive walkers (paper compares 1, 2, 4, 8). */
    unsigned numWalkers = 1;
    /** Enable batch-coalescing walk scheduling (uses one walker). */
    bool scheduling = false;
    /**
     * Page walk cache: a small per-core cache of page-table *lines*
     * (the paging-structure caches x86 walkers ship with; see the
     * Intel paging-structure-cache note the paper cites). Upper
     * radix levels hit here almost always; leaf PTE lines mostly
     * still travel to the shared L2.
     */
    std::size_t pwcLines = 16;
    std::size_t pwcWays = 4;
    Cycle pwcHitLatency = 6;
    /**
     * All walkers of one core share a single issue port into the
     * memory system; successive references occupy it for this many
     * cycles. Multiple naive walkers therefore overlap latency but
     * not issue bandwidth.
     */
    Cycle portInterval = 4;
};

/**
 * The walker pool attached to one shader core's MMU.
 */
class PageWalkers
{
  public:
    /**
     * Completion record of one request: (vpn4k, asid, finish cycle),
     * fired once per VPN. The asid is the request's, so one record
     * can serve every address space of a shared walker pool.
     */
    using DoneFn = RawCallback<Vpn, Asid, Cycle>;

    PageWalkers(const PtwConfig &cfg, const PageTable &pt,
                MemorySystem &mem, EventQueue &eq);

    /**
     * Request walks for one warp's batch of missing 4KB-granularity
     * VPNs. @p done (any callable taking (vpn, finish cycle)) fires
     * once per VPN at its completion cycle.
     */
    template <std::invocable<Vpn, Cycle> F>
    void
    requestBatch(const std::vector<Vpn> &vpns, Cycle now, F &&done)
    {
        requestBatchFor(pt_, 0, vpns, now, std::forward<F>(done));
    }

    /**
     * Multi-process variant: walk @p vpns through an explicit page
     * table on behalf of @p asid. Checker and heat-profiler keys are
     * ASID-composed so concurrent processes cannot alias; the done
     * callback still receives the local VPN. requestBatch() is the
     * (pt constructor-bound, asid 0) special case. Walks from
     * different spaces coalesce in one scheduled batch only when
     * their paging-structure lines physically coincide — they never
     * do, as each table owns its frames.
     */
    void requestBatchFor(const PageTable &pt, Asid asid,
                         const std::vector<Vpn> &vpns, Cycle now,
                         DoneFn done);

    /** Callable form: @p done takes (vpn, finish cycle). */
    template <std::invocable<Vpn, Cycle> F>
    void
    requestBatchFor(const PageTable &pt, Asid asid,
                    const std::vector<Vpn> &vpns, Cycle now, F &&done)
    {
        DoneFn raw;
        if (!vpns.empty()) {
            raw = callables_.bind(
                [fn = std::forward<F>(done)](Vpn v, Asid, Cycle c) mutable {
                    fn(v, c);
                },
                vpns.size());
        }
        requestBatchFor(pt, asid, vpns, now, raw);
    }

    /**
     * Shootdown hook: drop every walk-cache line backed by one of
     * @p pt's paging-structure pages (an unmap may retire table pages
     * by coalescing, and the IPI contract flushes the leaf lines).
     * Returns the number of lines invalidated.
     */
    std::size_t invalidatePagingLines(const PageTable &pt);

    /** True while any walk is in flight or queued. */
    bool busy() const { return inFlight_ > 0 || queued() > 0; }

    unsigned inFlight() const { return inFlight_; }

    /**
     * Arm invariant checking: walk conservation (every enqueued walk
     * completes exactly once, across batching and coalescing) and
     * paging-structure containment of every issued reference and
     * walk-cache entry.
     */
    void setChecker(InvariantChecker *chk) { checker_ = chk; }

    /**
     * Arm the observers (observation-only). @p tid labels this pool
     * (-1 for GPU-wide pools). Spans get enqueue / grant / completion
     * stamps on each walk and every issued reference classified by
     * radix level and service point (walk cache / shared L2 / DRAM);
     * @p span_key_shift converts this pool's 4K walk VPNs back to the
     * owner's span-key granularity (pageShift - 12; 0 for 4K owners
     * like the IOMMU).
     */
    void
    observe(const Probes &probes, int tid, unsigned span_key_shift = 0)
    {
        probes_ = probes;
        tid_ = tid;
        spanKeyShift_ = span_key_shift;
    }

    /**
     * Kernel-end check: nothing queued or in flight, conservation
     * balanced, every resident walk-cache line still inside a live
     * paging-structure page. No-op when unarmed.
     */
    void checkDrained() const;

    /**
     * Kernel-boundary reset, called once the pool has drained. The
     * issue-port reservation can outlive the last walk's completion
     * (a trailing walk-cache hit completes before its port slot
     * expires whenever portInterval > pwcHitLatency), so without this
     * the next kernel's first reference inherits a stale delay and
     * back-to-back kernels are not timing-independent. The walk cache
     * itself survives: warm paging-structure lines are real state.
     */
    void onKernelDrained();

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t walksCompleted() const { return walks_.value(); }
    std::uint64_t refsIssued() const { return refsIssued_.value(); }
    std::uint64_t refsEliminated() const
    {
        return refsEliminated_.value();
    }
    std::uint64_t pwcHits() const { return pwcHits_.value(); }
    const Histogram &walkLatency() const { return walkLatency_; }

    const PtwConfig &config() const { return cfg_; }

  private:
    struct PendingWalk
    {
        Vpn vpn;
        Cycle enqueued;
        DoneFn done;
        /** Radix this walk traverses (multi-process: per-walk). */
        const PageTable *pt = nullptr;
        Asid asid = 0;
    };

    /** One page-table reference of an in-flight walk/batch. */
    struct BatchRef
    {
        PhysAddr line = 0;
        /** Walks whose translation this reference yields:
         *  ActiveBatch::finishers[finBegin, finEnd). */
        std::uint32_t finBegin = 0;
        std::uint32_t finEnd = 0;
    };

    /**
     * An in-flight walk (naive) or coalesced batch (scheduled).
     * References are grouped by radix level: a level may start only
     * when the previous one finished (the pointer chase), but within
     * a level references pipeline at the port rate - the comparator
     * tree issues them successively (Fig. 9).
     *
     * One per walker, reused batch after batch: the vectors keep
     * their capacity. The level-chain event carries a raw pointer to
     * it (via EventQueue::scheduleRaw).
     */
    struct ActiveBatch
    {
        std::vector<PendingWalk> walks;
        /** Scheduled batches: each walk's radix path. */
        std::vector<WalkPath> paths;
        /** Every level's references, level after level. */
        std::vector<BatchRef> refs;
        /** End of each level's references in refs. */
        std::vector<std::uint32_t> levelEnd;
        /** Indices into walks, referenced by BatchRef ranges. */
        std::vector<std::uint32_t> finishers;
        std::size_t nextLevel = 0;
        PageWalkers *pool = nullptr;
        unsigned walker = 0;

        void
        clear()
        {
            walks.clear();
            paths.clear();
            refs.clear();
            levelEnd.clear();
            finishers.clear();
            nextLevel = 0;
        }
    };

    /** Comparator-tree sort record: one walk's entry at a level. */
    struct LevelRef
    {
        PhysAddr line;
        PhysAddr addr;
        std::uint32_t walk;

        bool
        operator<(const LevelRef &o) const
        {
            if (line != o.line)
                return line < o.line;
            if (addr != o.addr)
                return addr < o.addr;
            return walk < o.walk;
        }
    };

    /** Arena-pooled per-walk completion event payload. */
    struct WalkDone
    {
        PageWalkers *pool = nullptr;
        Vpn vpn = 0;
        Asid asid = 0;
        Cycle ready = 0;
        Cycle enqueued = 0;
        DoneFn done;
    };

    /** Walks waiting for a walker. */
    std::size_t queued() const { return queue_.size() - queueHead_; }

    /** Remove and return the oldest queued walk. */
    PendingWalk popQueued();

    /** Start the next queued walk on naive walker @p w. */
    void startNaive(unsigned w, Cycle now);

    /** Snapshot the whole queue into one coalesced batch. */
    void startScheduledBatch(unsigned w, Cycle now);

    /** Issue the batch's next level of references; event-chained. */
    void stepLevel(ActiveBatch *batch, Cycle now);

    /** scheduleRaw targets (ctx = the ActiveBatch / WalkDone node). */
    static void fireStepLevel(void *ctx, Cycle now);
    static void fireWalkDone(void *ctx, Cycle now);

    /** One page-table reference at radix @p level, checking the walk
     *  cache first.
     *  @return the cycle the referenced entry is available. */
    Cycle walkRef(PhysAddr line_addr, unsigned level, Cycle at);

    /** Dispatch queued work onto free walkers / the batch engine. */
    void pump(Cycle now);

    PtwConfig cfg_;
    const PageTable &pt_;
    MemorySystem &mem_;
    EventQueue &eq_;
    InvariantChecker *checker_ = nullptr;
    Probes probes_;
    int tid_ = 0;
    unsigned spanKeyShift_ = 0;

    /** Pool for the completion payloads above. Declared before the
     *  per-walker state so pending raw events (whose ctx points into
     *  it) are diagnosed by the arena destructor, not by UB, if a
     *  pool is ever torn down mid-walk. */
    Arena<WalkDone> doneArena_;
    CallableRecords<Vpn, Asid, Cycle> callables_;

    /** FIFO of waiting walks: queue_[queueHead_..] (the consumed
     *  prefix is dropped in bulk, so storage is reused). */
    std::vector<PendingWalk> queue_;
    std::size_t queueHead_ = 0;
    std::vector<bool> walkerBusy_;
    /** One reusable batch per walker. */
    std::vector<ActiveBatch> walkerBatch_;
    /** startScheduledBatch() scratch. */
    std::vector<LevelRef> levelScratch_;
    Cycle portFreeAt_ = 0;
    /** Walk cache payload: the cycle the line's fill completes, so a
     *  hit on a line still in flight from memory waits for it
     *  (no hit-under-fill optimism). */
    SetAssocArray<Cycle> pwc_;
    unsigned inFlight_ = 0;

    Counter walks_;
    Counter refsIssued_;
    Counter refsEliminated_;
    Counter batches_;
    Counter pwcHits_;
    Histogram walkLatency_;
};

} // namespace gpummu

#endif // MMU_PTW_HH
