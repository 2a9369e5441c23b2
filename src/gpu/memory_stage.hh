/**
 * @file
 * Shader core memory stage (Fig. 5 of the paper).
 *
 * Drives one warp memory instruction through: address generation
 * (done by the caller), coalescing into unique lines + unique PTEs,
 * parallel TLB / L1 presentation, walk initiation on misses, and the
 * paper's non-blocking policies:
 *
 *  - blocking TLB: the core gates issue on Mmu::memAvailable();
 *  - hit-under-miss: all-hit warps proceed during outstanding walks,
 *    would-miss warps are bounced (BlockedTlbBusy) and must retry
 *    after the MMU drains (no miss-under-miss);
 *  - overlapped cache access: the missing warp's TLB-hitting lines
 *    access the L1 immediately; lines under missing pages go as each
 *    walk finishes.
 *
 * The stage is shared by the per-warp-stack core and the TBC core.
 */

#ifndef GPU_MEMORY_STAGE_HH
#define GPU_MEMORY_STAGE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/coalescer.hh"
#include "mem/l1_cache.hh"
#include "mmu/iommu.hh"
#include "mmu/mmu.hh"
#include "sched/warp_scheduler.hh"
#include "sim/arena.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "trace/stall_accounting.hh"

namespace gpummu {

enum class MemIssueResult
{
    Issued,        ///< op accepted; completion callback will fire
    BlockedTlbBusy ///< would miss under a miss; retry after drain
};

class MemoryStage
{
  public:
    /** Fires exactly once with the warp's resume cycle. */
    using CompleteFn = std::function<void(Cycle)>;
    /** TLB-hit hook carrying the entry's warp history (for the CPM). */
    using TlbHitHistoryFn =
        std::function<void(int warp, Vpn vpn,
                           const std::array<int, 4> &history,
                           unsigned used)>;

    MemoryStage(Mmu &mmu, L1Cache &l1, EventQueue &eq);

    /** The scheduler receiving cache/TLB feedback (may be null). */
    void setScheduler(WarpScheduler *sched) { sched_ = sched; }

    /**
     * Switch to IOMMU mode (Section 2.2 baseline): the L1 is
     * virtually addressed and translation happens at the shared
     * memory-controller IOMMU on the L1-miss path. Requires the
     * per-core MMU to be disabled.
     */
    void setIommu(Iommu *iommu) { iommu_ = iommu; }

    /**
     * Owning process of this core's current kernel (multi-tenant
     * IOMMU runs). Composed into the virtual L1 line ids and the
     * IOMMU translate keys so co-scheduled tenants with overlapping
     * VAs cannot alias; 0 (default) is the identity.
     */
    void setAsid(Asid asid) { asid_ = asid; }

    /** Optional CPM hook for TLB-aware TBC. */
    void
    setTlbHitHistoryHook(TlbHitHistoryFn fn)
    {
        onTlbHitHistory_ = std::move(fn);
    }

    /**
     * Coalesce the active lanes' virtual addresses into @p acc at
     * this stage's translation granularity. A warp does this once per
     * dynamic memory instruction and keeps @p acc across
     * hit-under-miss bounces.
     */
    void
    coalesce(CoalescedAccess &acc,
             const std::vector<VirtAddr> &lane_addrs) const
    {
        GPUMMU_ASSERT(!lane_addrs.empty(),
                      "memory op with no active lanes");
        coalesceInto(acc, lane_addrs, kLineShift,
                     mmu_.config().enabled ? mmu_.pageShift()
                                           : kPageShift4K);
    }

    /**
     * Issue one warp memory instruction.
     *
     * @param warp_id  hardware warp slot
     * @param is_store store (translation blocks, data does not)
     * @param acc      the instruction's lanes, from coalesce(); only
     *                 read during the call
     * @param now      issue cycle
     * @param complete resume callback (sync or async)
     */
    MemIssueResult issue(int warp_id, bool is_store,
                         const CoalescedAccess &acc, Cycle now,
                         CompleteFn complete);

    void regStats(StatRegistry &reg, const std::string &prefix);

    /**
     * Arm the observers (observation-only); @p tid labels this core.
     * Heat gets the per-interval page-divergence series. Spans are
     * used on the IOMMU path only: the span for each missing page
     * opens when its translate request departs this core for the
     * memory controller (MMU-path spans open inside the L1 TLB).
     */
    void
    observe(const Probes &probes, int tid)
    {
        probes_ = probes;
        tid_ = tid;
    }

    /**
     * Dominant stall cause of the most recently issued instruction
     * (valid right after issue() returns Issued). The core snapshots
     * it to attribute the warp's subsequent wait cycles.
     */
    StallReason lastIssueReason() const { return lastIssueReason_; }

    const Histogram &pageDivergence() const { return pageDivergence_; }
    std::uint64_t memInstructions() const { return memInstrs_.value(); }
    std::uint64_t tlbBusyBounces() const { return tlbBounces_.value(); }

  private:
    /**
     * Miss-path state of one in-flight warp memory instruction, the
     * context of its walk completions. Recycled with its vectors'
     * capacity: the replay lines are a flat copy of the access's
     * deferred pages, so the warp may coalesce its next instruction
     * while this one's walks are in flight.
     */
    struct WalkPending
    {
        /** One deferred page: lines[begin, end). */
        struct Group
        {
            Vpn vpn = 0;
            std::uint64_t frame = 0;
            std::uint32_t begin = 0;
            std::uint32_t end = 0;
            /** Still waiting for its walk. */
            bool missing = false;
        };

        MemoryStage *stage = nullptr;
        std::size_t remainingWalks = 0;
        Cycle ready = 0;
        Cycle lastWalkDone = 0;
        bool isStore = false;
        bool overlap = false;
        int warpId = -1;
        std::vector<std::uint64_t> lines;
        /** Missing pages, and without overlap the hit pages too. */
        std::vector<Group> groups;
        /** Without overlap: groups in replay order - hit pages in
         *  page order, then missed pages in walk-completion order. */
        std::vector<std::uint32_t> replayOrder;
        CompleteFn complete;
    };

    /** IOMMU-path equivalent of WalkPending. */
    struct IommuPending
    {
        MemoryStage *stage = nullptr;
        std::size_t remaining = 0;
        Cycle ready = 0;
        /** L2 leg a translated miss response still takes. */
        Cycle refetch = 0;
        CompleteFn complete;
    };

    /** Mmu walk completion (ctx = WalkPending). */
    static void onWalkDone(void *ctx, Vpn vpn, std::uint64_t frame,
                           Cycle fin);

    /** Iommu translation completion (ctx = IommuPending). */
    static void onIommuDone(void *ctx, std::uint64_t frame, Cycle done);

    /** Access @p p's deferred group @p g through @p frame at @p at. */
    void replay(WalkPending &p, const WalkPending::Group &g,
                std::uint64_t frame, Cycle at);

    /** Access one physical line, absorbing MSHR-full retries. */
    Cycle accessLine(PhysAddr pline, bool is_store, Cycle at,
                     int warp_id, bool tlb_missed_instr);

    /** IOMMU-mode issue path (virtually addressed caches). */
    MemIssueResult issueIommu(int warp_id, bool is_store,
                              const CoalescedAccess &acc, Cycle now,
                              CompleteFn complete);

    /** Fold one access outcome into the instruction's stall cause. */
    void noteOutcome(const AccessOutcome &out, bool is_store);

    Mmu &mmu_;
    L1Cache &l1_;
    EventQueue &eq_;
    WarpScheduler *sched_ = nullptr;
    Iommu *iommu_ = nullptr;
    TlbHitHistoryFn onTlbHitHistory_;
    Probes probes_;
    int tid_ = 0;
    StallReason lastIssueReason_ = StallReason::None;
    Asid asid_ = 0;

    /** Pools for the pending descriptors above; the Mmu and the
     *  Iommu hold raw pointers into them until the last completion
     *  (an IommuPending still live at teardown panics in ~Arena). */
    RecyclePool<WalkPending> walkPool_;
    Arena<IommuPending> iommuArena_;

    /**
     * issue() scratch, reused across instructions so the per-issue
     * path performs no allocation. Safe because issue() is never
     * re-entered: completion callbacks only mark warps ready, and
     * cores issue from tick().
     */
    Mmu::BatchResult batchScratch_;
    std::vector<Vpn> vpnScratch_;
    std::vector<Vpn> missVpnScratch_;
    std::vector<Vpn> iommuMissScratch_;

    Counter memInstrs_;
    Counter tlbBounces_;
    Counter instrsWithTlbMiss_;
    Histogram pageDivergence_;
    Histogram linesPerInstr_;
};

} // namespace gpummu

#endif // GPU_MEMORY_STAGE_HH
