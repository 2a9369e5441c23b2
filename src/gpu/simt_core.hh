/**
 * @file
 * Shader core with per-warp SIMT reconvergence stacks.
 *
 * Models one of the paper's 30 SIMT cores: 48 warp slots of 32
 * threads, an in-order issue stage driven by a pluggable warp
 * scheduler, a single load/store unit feeding the MemoryStage, and a
 * per-core MMU (TLB + PTWs) beside the 32KB L1.
 *
 * Thread block compaction uses a different core (TbcCore) that shares
 * the MemoryStage and scheduler machinery.
 */

#ifndef GPU_SIMT_CORE_HH
#define GPU_SIMT_CORE_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "gpu/memory_stage.hh"
#include "gpu/shader_core.hh"
#include "gpu/simt_stack.hh"
#include "mem/l1_cache.hh"
#include "mmu/mmu.hh"
#include "sched/warp_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace gpummu {

struct CoreConfig
{
    unsigned numWarpSlots = 48; ///< paper: 48 warps per shader core
    unsigned issueWidth = 2;    ///< issues per cycle, at most 1 memory
    Cycle aluLatency = 2;
    L1CacheConfig l1;
    MmuConfig mmu;
};

/** Kernel launch parameters shared by all cores of a run. */
struct LaunchParams
{
    const KernelProgram *program = nullptr;
    unsigned threadsPerBlock = 256;
    unsigned totalBlocks = 0;
    std::uint64_t seed = 1;
};

enum class WarpState
{
    Invalid,
    Ready,
    WaitingMem,
    WaitingTlbDrain,
    Finished,
};

class SimtCore : public ShaderCore
{
  public:
    SimtCore(int core_id, const CoreConfig &cfg,
             const LaunchParams &launch, AddressSpace &as,
             MemorySystem &mem, EventQueue &eq);

    SimtCore(const SimtCore &) = delete;
    SimtCore &operator=(const SimtCore &) = delete;

    /** Install the warp scheduler (must precede the first tick). */
    void setScheduler(std::unique_ptr<WarpScheduler> sched);

    /** Route translation through a shared IOMMU (Section 2.2). */
    void setIommu(Iommu *iommu) { memStage_.setIommu(iommu); }
    WarpScheduler *scheduler() { return sched_.get(); }

    /** Warps per thread block for the configured launch. */
    unsigned warpsPerBlock() const;

    /** Can another thread block be launched here right now? */
    bool canAcceptBlock() const override;

    /** Launch thread block @p global_block_id onto this core. */
    void launchBlock(unsigned global_block_id) override;

    /**
     * Advance one cycle, then sleep until the earliest cycle a warp
     * can issue. Wakes: a block launch, a memory completion (at its
     * ready cycle), a TLB-drain callback, and the MMU's outstanding
     * set turning empty or non-empty.
     */
    void tick(Cycle now) override;
    void settle(Cycle cycle) override;

    /** True when no resident warps remain. */
    bool idle() const override { return liveWarps_ == 0; }

    int coreId() const { return coreId_; }
    Mmu &mmu() override { return mmu_; }
    L1Cache &l1() override { return l1_; }
    MemoryStage &memStage() override { return memStage_; }

    void observe(const Probes &probes) override;

    bool
    setMemTraceWriter(MemTraceWriter *writer) override
    {
        memtrace_ = writer;
        return true;
    }
    WarpStallAccounting &stallAccounting() override { return stalls_; }

    void regStats(StatRegistry &reg,
                  const std::string &prefix) override;

    std::uint64_t instructionsIssued() const override
    {
        return instrs_.value();
    }
    std::uint64_t memInstructionsIssued() const
    {
        return memStage_.memInstructions();
    }
    std::uint64_t idleCycles() const override
    {
        return idleCycles_.value();
    }
    std::uint64_t tlbIdleCycles() const
    {
        return tlbIdleCycles_.value();
    }
    std::uint64_t blocksCompleted() const
    {
        return blocksCompleted_.value();
    }

  private:
    struct Warp
    {
        bool valid = false;
        int blockSlot = -1;
        /** Per-lane index into the block's thread array; -1 empty. */
        std::array<int, kWarpWidth> laneThread{};
        SimtStack stack;
        WarpState state = WarpState::Invalid;
        Cycle readyAt = 0;
        /**
         * The current memory instruction, coalesced once per dynamic
         * instruction and kept across hit-under-miss bounces, so the
         * per-thread RNG streams are consumed exactly once and a
         * retry does not coalesce again.
         */
        CoalescedAccess access;
        bool hasAccess = false;
        /**
         * The open stall segment: every cycle from stallSince on is
         * charged to stallReason, in one attribute() call when the
         * scan first sees the warp eligible (or at settle()).
         */
        StallReason stallReason = StallReason::None;
        Cycle stallSince = 0;
    };

    struct ResidentBlock
    {
        bool valid = false;
        unsigned globalId = 0;
        unsigned threadsLive = 0;
        std::vector<ThreadCtx> threads;
        std::vector<int> warpIds;
    };

    /** The instruction the warp would execute next, or nullptr. */
    const Instruction *nextInstr(Warp &w);

    /** Execute one instruction for warp @p wid. @return true if a
     *  memory instruction was issued. */
    bool issueWarp(int wid, Cycle now);

    /** Charge @p w's open stall segment up to @p now and close it. */
    void
    closeStall(int wid, Warp &w, Cycle now)
    {
        stalls_.attribute(wid, w.stallReason, now - w.stallSince);
        w.stallReason = StallReason::None;
        w.stallSince = now;
    }

    /** Apply the idle counters of the cycles slept through before
     *  @p upto. */
    void chargeSleep(Cycle upto);

    void executeBranch(Warp &w, const Instruction &in);
    void executeExit(int wid, Warp &w);
    void retireWarp(int wid, Warp &w);

    /** Bump block-entry visit counters when entering a block. */
    void noteBlockEntry(Warp &w);

    ThreadCtx &
    threadAt(const Warp &w, unsigned lane)
    {
        auto &blk = blocks_[static_cast<std::size_t>(w.blockSlot)];
        return blk.threads[static_cast<std::size_t>(
            w.laneThread[lane])];
    }

    int coreId_;
    CoreConfig cfg_;
    LaunchParams launch_;
    EventQueue &eq_;

    L1Cache l1_;
    Mmu mmu_;
    MemoryStage memStage_;
    std::unique_ptr<WarpScheduler> sched_;

    /** Observation-only capture sink; null when not capturing. */
    MemTraceWriter *memtrace_ = nullptr;

    std::vector<Warp> warps_;
    std::vector<ResidentBlock> blocks_;
    unsigned liveWarps_ = 0;
    WarpStallAccounting stalls_;
    /** tick() scratch: issuable-warp ids. Member so the per-cycle
     *  path does not allocate (tick dominates the profile). */
    std::vector<int> issuableScratch_;
    /** issueWarp() scratch: the active lanes' addresses. */
    std::vector<VirtAddr> laneAddrs_;

    /**
     * Idle counters for slept cycles. Every cycle from idleFrom_ to
     * the next tick issues nothing, so it counts exactly as the
     * flags captured at the end of the last tick say.
     */
    Cycle idleFrom_ = 0;
    bool sleepIdle_ = false;
    bool sleepTlbIdle_ = false;
    bool sleepMemBlocked_ = false;

    Counter instrs_;
    Counter aluInstrs_;
    Counter branchInstrs_;
    Counter divergentBranches_;
    Counter idleCycles_;
    Counter tlbIdleCycles_;
    Counter blocksCompleted_;
    Counter memBlockedCycles_;
};

} // namespace gpummu

#endif // GPU_SIMT_CORE_HH
