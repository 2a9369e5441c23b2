/**
 * @file
 * Shader core with thread block compaction (Fung & Aamodt HPCA 2011),
 * optionally TLB-aware (the paper's Section 8).
 *
 * Warps of a thread block synchronize at every divergent branch on a
 * block-wide reconvergence stack; the thread compactor then forms
 * dynamic warps from the threads on each path. The TLB-aware variant
 * consults the Common Page Matrix so that threads are only packed
 * with threads whose original warps have recently hit the same TLB
 * entries, trading a possible extra dynamic warp for much lower page
 * divergence.
 */

#ifndef TBC_TBC_CORE_HH
#define TBC_TBC_CORE_HH

#include <memory>
#include <vector>

#include "gpu/memory_stage.hh"
#include "gpu/shader_core.hh"
#include "gpu/simt_core.hh"
#include "sched/warp_scheduler.hh"
#include "tbc/block_stack.hh"
#include "tbc/cpm.hh"

namespace gpummu {

struct TbcConfig
{
    /** Use the Common Page Matrix admission rule. */
    bool tlbAware = false;
    CpmConfig cpm;
};

class TbcCore : public ShaderCore
{
  public:
    /** Scheduler-id stride per block slot (warp index lives below). */
    static constexpr int kSchedStride = 4096;

    TbcCore(int core_id, const CoreConfig &cfg, const TbcConfig &tbc,
            const LaunchParams &launch, AddressSpace &as,
            MemorySystem &mem, EventQueue &eq);

    TbcCore(const TbcCore &) = delete;
    TbcCore &operator=(const TbcCore &) = delete;

    void setScheduler(std::unique_ptr<WarpScheduler> sched);

    unsigned warpsPerBlock() const;
    bool canAcceptBlock() const override;
    void launchBlock(unsigned global_block_id) override;
    void tick(Cycle now) override;
    bool idle() const override { return liveBlocks_ == 0; }

    Mmu &mmu() override { return mmu_; }
    L1Cache &l1() override { return l1_; }
    MemoryStage &memStage() override { return memStage_; }

    void observe(const Probes &probes) override;
    WarpStallAccounting &stallAccounting() override { return stalls_; }

    std::uint64_t instructionsIssued() const override
    {
        return instrs_.value();
    }
    std::uint64_t idleCycles() const override
    {
        return idleCycles_.value();
    }
    std::uint64_t compactions() const { return compactions_.value(); }
    std::uint64_t dynamicWarpsFormed() const
    {
        return dynWarps_.value();
    }

    void regStats(StatRegistry &reg,
                  const std::string &prefix) override;

  private:
    struct DynWarp
    {
        std::array<int, kWarpWidth> laneThread{};
        int instIdx = 0;
        WarpState state = WarpState::Ready;
        Cycle readyAt = 0;
        bool done = false; ///< reached the entry's terminator
        /** Representative original warp (CPM row / L1 ownership). */
        int originRep = -1;
        /** The current memory instruction, coalesced once per
         *  dynamic instruction and kept across TLB-busy bounces. */
        CoalescedAccess access;
        bool hasAccess = false;
        /**
         * Loads issue fire-and-forget inside an entry (the warp
         * blocks on outstanding data only at the terminator, where
         * the block-wide barrier already waits). This keeps the
         * barrier critical path at max(load latencies) rather than
         * their sum.
         */
        unsigned pendingLoads = 0;
        Cycle loadsReadyAt = 0;
        bool waitingAtTerminator = false;
        /** Cause the warp's current wait is attributed to. */
        StallReason stallReason = StallReason::None;
    };

    struct TbcBlock
    {
        bool valid = false;
        unsigned globalId = 0;
        unsigned threadsLive = 0;
        int warpBase = 0; ///< core-level id of static warp 0
        std::vector<ThreadCtx> threads;
        BlockStack stack;
        std::vector<DynWarp> warps;
        unsigned warpsDone = 0;
        BlockMask takenAcc;
        BlockMask fallAcc;
        BlockMask exitAcc;
    };

    /** Compact the stack top into dynamic warps and start them. */
    void activateTop(TbcBlock &blk, Cycle now);

    /** All dynamic warps reached the terminator: apply it. */
    void resolveEntry(int blk_slot, Cycle now);

    void issueWarp(int blk_slot, int warp_idx, Cycle now);

    ThreadCtx &
    threadOf(TbcBlock &blk, int tid)
    {
        return blk.threads[static_cast<std::size_t>(tid)];
    }

    const Instruction *currentInstr(const TbcBlock &blk,
                                    const DynWarp &w) const;

    /** Stable stall-ledger slot for dynamic warp i of block slot b
     *  (compaction can form up to threadsPerBlock dynamic warps). */
    int
    warpSlotId(std::size_t b, std::size_t i) const
    {
        return static_cast<int>(b * launch_.threadsPerBlock + i);
    }

    int coreId_;
    CoreConfig cfg_;
    TbcConfig tbcCfg_;
    LaunchParams launch_;
    EventQueue &eq_;

    L1Cache l1_;
    Mmu mmu_;
    MemoryStage memStage_;
    CommonPageMatrix cpm_;
    std::unique_ptr<WarpScheduler> sched_;

    std::vector<TbcBlock> blocks_;
    unsigned liveBlocks_ = 0;
    WarpStallAccounting stalls_;
    /** tick() scratch: issuable scheduler ids (see SimtCore). */
    std::vector<int> issuableScratch_;
    /** Memory-issue scratch: the active lanes' addresses. */
    std::vector<VirtAddr> laneAddrs_;

    Counter instrs_;
    Counter aluInstrs_;
    Counter branchInstrs_;
    Counter divergentBranches_;
    Counter idleCycles_;
    Counter tlbIdleCycles_;
    Counter blocksCompleted_;
    Counter compactions_;
    Counter dynWarps_;
    Histogram warpOccupancy_;
};

} // namespace gpummu

#endif // TBC_TBC_CORE_HH
