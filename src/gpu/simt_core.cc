#include "gpu/simt_core.hh"

#include <algorithm>

#include "trace/memtrace.hh"
#include "trace/trace.hh"

namespace gpummu {

SimtCore::SimtCore(int core_id, const CoreConfig &cfg,
                   const LaunchParams &launch, AddressSpace &as,
                   MemorySystem &mem, EventQueue &eq)
    : coreId_(core_id), cfg_(cfg), launch_(launch), eq_(eq),
      l1_(cfg.l1, mem), mmu_(cfg.mmu, as, mem, eq),
      memStage_(mmu_, l1_, eq)
{
    GPUMMU_ASSERT(launch.program != nullptr);
    GPUMMU_ASSERT(launch.threadsPerBlock % kWarpWidth == 0,
                  "threadsPerBlock must be a warp multiple");
    warps_.resize(cfg.numWarpSlots);
    blocks_.resize(cfg.numWarpSlots / warpsPerBlock());
    // The blocking gate and the TLB-idle counter follow the MMU's
    // outstanding set; the events that flip it must be seen.
    mmu_.setMissListener([this]() { wakeAt(eq_.now()); });

    // Default scheduler; presets usually replace it.
    setScheduler(std::make_unique<LooseRoundRobin>(cfg.numWarpSlots));
}

void
SimtCore::setScheduler(std::unique_ptr<WarpScheduler> sched)
{
    sched_ = std::move(sched);
    memStage_.setScheduler(sched_.get());
    // Route cache and TLB victims into the scheduler's VTAs.
    l1_.setEvictionListener([this](PhysAddr line, int warp) {
        if (sched_)
            sched_->onL1Eviction(line, warp);
    });
    mmu_.tlb().setEvictionListener([this](Vpn vpn, int warp) {
        if (sched_)
            sched_->onTlbEviction(vpn, warp);
    });
}

void
SimtCore::observe(const Probes &probes)
{
    l1_.observe(probes, coreId_);
    mmu_.observe(probes, coreId_);
    memStage_.observe(probes, coreId_);
}

unsigned
SimtCore::warpsPerBlock() const
{
    return launch_.threadsPerBlock / kWarpWidth;
}

bool
SimtCore::canAcceptBlock() const
{
    unsigned free_slots = 0;
    for (const auto &w : warps_) {
        if (!w.valid)
            ++free_slots;
    }
    if (free_slots < warpsPerBlock())
        return false;
    return std::any_of(blocks_.begin(), blocks_.end(),
                       [](const ResidentBlock &b) { return !b.valid; });
}

void
SimtCore::launchBlock(unsigned global_block_id)
{
    GPUMMU_ASSERT(canAcceptBlock());
    auto blk_it = std::find_if(blocks_.begin(), blocks_.end(),
                               [](const ResidentBlock &b) {
                                   return !b.valid;
                               });
    const int slot = static_cast<int>(blk_it - blocks_.begin());
    ResidentBlock &blk = *blk_it;
    blk.valid = true;
    blk.globalId = global_block_id;
    blk.threadsLive = launch_.threadsPerBlock;
    blk.threads.clear();
    blk.threads.reserve(launch_.threadsPerBlock);
    blk.warpIds.clear();

    const unsigned tpb = launch_.threadsPerBlock;
    for (unsigned t = 0; t < tpb; ++t) {
        ThreadCtx ctx(static_cast<int>(global_block_id * tpb + t),
                      static_cast<int>(global_block_id),
                      static_cast<int>(t), kWarpWidth, launch_.seed);
        ctx.blockVisits.assign(launch_.program->numBlocks(), 0);
        blk.threads.push_back(std::move(ctx));
    }

    const LaneMask full =
        kWarpWidth == 64 ? ~LaneMask(0)
                         : ((LaneMask(1) << kWarpWidth) - 1);
    unsigned assigned = 0;
    for (std::size_t wid = 0;
         wid < warps_.size() && assigned < warpsPerBlock(); ++wid) {
        if (warps_[wid].valid)
            continue;
        Warp &w = warps_[wid];
        w.valid = true;
        w.blockSlot = slot;
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            w.laneThread[lane] =
                static_cast<int>(assigned * kWarpWidth + lane);
        }
        w.stack.reset(0, full);
        w.state = WarpState::Ready;
        w.readyAt = 0;
        blk.warpIds.push_back(static_cast<int>(wid));
        ++assigned;
        ++liveWarps_;
    }
    GPUMMU_ASSERT(assigned == warpsPerBlock());
    wakeAt(0);
}

const Instruction *
SimtCore::nextInstr(Warp &w)
{
    w.stack.reconverge();
    if (w.stack.empty())
        return nullptr;
    const auto &top = w.stack.top();
    const auto &bb = launch_.program->block(top.block);
    GPUMMU_ASSERT(top.instIdx < static_cast<int>(bb.instrs.size()));
    return &bb.instrs[static_cast<std::size_t>(top.instIdx)];
}

void
SimtCore::noteBlockEntry(Warp &w)
{
    auto &top = w.stack.top();
    if (top.instIdx != 0 || top.entered)
        return;
    top.entered = true;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (top.mask & (LaneMask(1) << lane)) {
            auto &ctx = threadAt(w, lane);
            ++ctx.blockVisits[static_cast<std::size_t>(top.block)];
        }
    }
}

void
SimtCore::executeBranch(Warp &w, const Instruction &in)
{
    const auto top = w.stack.top(); // copy: branch() rewrites it
    LaneMask taken = 0;
    LaneMask fall = 0;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        const LaneMask bit = LaneMask(1) << lane;
        if (!(top.mask & bit))
            continue;
        if (launch_.program->genCond(in.condGen, threadAt(w, lane)))
            taken |= bit;
        else
            fall |= bit;
    }
    branchInstrs_.inc();
    if (memtrace_ != nullptr && in.condGen >= 0) {
        const auto &blk =
            blocks_[static_cast<std::size_t>(w.blockSlot)];
        memtrace_->recordBranch(blk.globalId,
                                threadAt(w, 0).warpInBlock,
                                in.condGen, top.mask, taken);
    }
    if (w.stack.branch(taken, fall, in.takenBlock, in.fallBlock,
                       in.reconvBlock)) {
        divergentBranches_.inc();
    }
}

void
SimtCore::executeExit(int wid, Warp &w)
{
    const LaneMask mask = w.stack.top().mask;
    auto &blk = blocks_[static_cast<std::size_t>(w.blockSlot)];
    const unsigned exiting = static_cast<unsigned>(popcount64(mask));
    GPUMMU_ASSERT(blk.threadsLive >= exiting);
    blk.threadsLive -= exiting;
    w.stack.clearLanes(mask);
    w.stack.reconverge();
    if (w.stack.empty())
        retireWarp(wid, w);
    if (blk.threadsLive == 0) {
        blocksCompleted_.inc();
        blk.valid = false;
    }
}

void
SimtCore::retireWarp(int wid, Warp &w)
{
    GPUMMU_ASSERT(w.valid);
    w.valid = false;
    w.state = WarpState::Invalid;
    GPUMMU_ASSERT(liveWarps_ > 0);
    --liveWarps_;
    if (sched_)
        sched_->onWarpReset(wid);
}

bool
SimtCore::issueWarp(int wid, Cycle now)
{
    Warp &w = warps_[static_cast<std::size_t>(wid)];
    const Instruction *in = nextInstr(w);
    GPUMMU_ASSERT(in != nullptr);
    noteBlockEntry(w);
    // The wait after this issue is charged from the next cycle. ALU
    // latency and branch pipelining are execution, not stalls.
    w.stallReason = StallReason::None;
    w.stallSince = now + 1;

    auto &top = w.stack.top();
    switch (in->op) {
      case Opcode::Alu:
        instrs_.inc();
        aluInstrs_.inc();
        ++top.instIdx;
        w.readyAt = now + cfg_.aluLatency;
        return false;

      case Opcode::Branch:
        instrs_.inc();
        executeBranch(w, *in);
        w.readyAt = now + 1;
        return false;

      case Opcode::Exit:
        instrs_.inc();
        executeExit(wid, w);
        return false;

      case Opcode::Load:
      case Opcode::Store: {
        // Generate lane addresses once per dynamic instruction; a
        // hit-under-miss bounce must not re-roll the RNG streams.
        if (!w.hasPendingAddrs) {
            w.pendingAddrs.clear();
            const LaneMask mask = top.mask;
            for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
                if (mask & (LaneMask(1) << lane)) {
                    w.pendingAddrs.push_back(launch_.program->genAddr(
                        in->addrGen, threadAt(w, lane)));
                }
            }
            w.hasPendingAddrs = true;
            if (memtrace_ != nullptr) {
                // Capture at generation time (not per bounce) so the
                // trace holds one record per dynamic instruction.
                const auto &blk =
                    blocks_[static_cast<std::size_t>(w.blockSlot)];
                memtrace_->recordAccess(
                    now, coreId_, blk.globalId,
                    threadAt(w, 0).warpInBlock,
                    in->op == Opcode::Store, top.mask,
                    w.pendingAddrs);
            }
        }
        const bool is_store = in->op == Opcode::Store;
        w.state = WarpState::WaitingMem;
        auto result = memStage_.issue(
            wid, is_store, w.pendingAddrs, now,
            [this, wid](Cycle ready) {
                Warp &ww = warps_[static_cast<std::size_t>(wid)];
                ww.state = WarpState::Ready;
                ww.readyAt = ready;
                wakeAt(ready);
            });
        if (result == MemIssueResult::BlockedTlbBusy) {
            // Swapped out: retry this instruction after the MMU
            // drains. The PC was not advanced.
            w.state = WarpState::WaitingTlbDrain;
            w.stallReason = StallReason::WalkerStructural;
            mmu_.onDrain([this, wid]() {
                Warp &ww = warps_[static_cast<std::size_t>(wid)];
                if (ww.state == WarpState::WaitingTlbDrain) {
                    ww.state = WarpState::Ready;
                    ww.readyAt = eq_.now() + 1;
                    wakeAt(ww.readyAt);
                }
            });
            return true;
        }
        instrs_.inc();
        w.hasPendingAddrs = false;
        ++w.stack.top().instIdx;
        // Whether the completion already fired (all-hit, readyAt in
        // the future) or is pending (miss path, WaitingMem), the wait
        // ahead is charged to the instruction's dominant cause.
        w.stallReason = memStage_.lastIssueReason();
        return true;
      }
    }
    GPUMMU_PANIC("unhandled opcode");
}

void
SimtCore::tick(Cycle now)
{
    chargeSleep(now);
    // Wakes raised during this tick lower this; the scan adds the
    // cycles at which the warps it saw can issue.
    nextTick_ = kCycleNever;
    idleFrom_ = now + 1;
    sleepIdle_ = false;
    if (liveWarps_ == 0)
        return; // asleep until a block launches

    sched_->tick(now);
    const bool mem_available = mmu_.memAvailable();
    Cycle wake = sched_->tickIsPure() ? kCycleNever : now + 1;

    // Collect issueable warps. Memory warps are filtered by the
    // blocking policy and the scheduler's throttle. A warp that cannot
    // issue keeps its stall segment open; the segment is charged when
    // the warp first becomes eligible. A ready memory warp gated by
    // the blocking TLB is charged tlb_miss from then on (ALU latency
    // and the scheduler's own throttle stay unattributed, which keeps
    // per-warp totals below the run's cycle count).
    std::vector<int> &issuable = issuableScratch_;
    issuable.clear();
    bool any_ready_mem_blocked = false;
    for (std::size_t wid = 0; wid < warps_.size(); ++wid) {
        Warp &w = warps_[wid];
        if (!w.valid || w.state != WarpState::Ready)
            continue;
        if (w.readyAt > now) {
            wake = std::min(wake, w.readyAt);
            continue;
        }
        const int iw = static_cast<int>(wid);
        const Instruction *in = nextInstr(w);
        if (in == nullptr) {
            closeStall(iw, w, now);
            retireWarp(iw, w);
            continue;
        }
        const bool is_mem =
            in->op == Opcode::Load || in->op == Opcode::Store;
        if (is_mem && !mem_available) {
            // The blocking TLB's gate: walks are outstanding. It
            // opens only when the MMU drains, which wakes the core.
            any_ready_mem_blocked = true;
            if (w.stallReason != StallReason::TlbMiss) {
                closeStall(iw, w, now);
                w.stallReason = StallReason::TlbMiss;
            }
            continue;
        }
        closeStall(iw, w, now);
        if (is_mem && !sched_->mayIssueMem(iw)) {
            any_ready_mem_blocked = true;
            wake = now + 1;
            continue;
        }
        issuable.push_back(iw);
    }

    unsigned issued = 0;
    bool mem_issued = false;
    while (issued < cfg_.issueWidth && !issuable.empty()) {
        const int wid = sched_->pick(now, issuable);
        if (wid < 0)
            break;
        issuable.erase(std::remove(issuable.begin(), issuable.end(),
                                   wid),
                       issuable.end());
        Warp &w = warps_[static_cast<std::size_t>(wid)];
        const Instruction *in = nextInstr(w);
        if (in == nullptr) {
            retireWarp(wid, w);
            continue;
        }
        const bool is_mem =
            in->op == Opcode::Load || in->op == Opcode::Store;
        if (is_mem && mem_issued) {
            wake = now + 1; // one LSU: try again next cycle
            continue;
        }
        if (issueWarp(wid, now))
            mem_issued = true;
        ++issued;
        if (w.valid && w.state == WarpState::Ready)
            wake = std::min(wake, std::max(w.readyAt, now + 1));
    }
    if (!issuable.empty())
        wake = now + 1;

    if (issued == 0 && liveWarps_ > 0) {
        idleCycles_.inc();
        if (mmu_.missOutstanding())
            tlbIdleCycles_.inc();
        if (any_ready_mem_blocked)
            memBlockedCycles_.inc();
    }

    // Until the wake cycle nothing can issue: the gated warps stay
    // gated and the MMU's outstanding set keeps its emptiness (a flip
    // wakes the core), so each slept cycle counts like these flags.
    sleepIdle_ = liveWarps_ > 0;
    sleepTlbIdle_ = mmu_.missOutstanding();
    sleepMemBlocked_ = any_ready_mem_blocked;
    nextTick_ = std::min(nextTick_, wake);
}

void
SimtCore::chargeSleep(Cycle upto)
{
    if (upto <= idleFrom_)
        return;
    const Cycle n = upto - idleFrom_;
    idleFrom_ = upto;
    if (!sleepIdle_)
        return;
    idleCycles_.inc(n);
    if (sleepTlbIdle_)
        tlbIdleCycles_.inc(n);
    if (sleepMemBlocked_)
        memBlockedCycles_.inc(n);
}

void
SimtCore::settle(Cycle cycle)
{
    chargeSleep(cycle);
    for (std::size_t wid = 0; wid < warps_.size(); ++wid) {
        Warp &w = warps_[wid];
        if (!w.valid || w.stallSince >= cycle)
            continue;
        stalls_.attribute(static_cast<int>(wid), w.stallReason,
                          cycle - w.stallSince);
        w.stallSince = cycle;
    }
}

void
SimtCore::regStats(StatRegistry &reg, const std::string &prefix)
{
    l1_.regStats(reg, prefix + ".l1");
    mmu_.regStats(reg, prefix + ".mmu");
    memStage_.regStats(reg, prefix + ".mem");
    if (sched_)
        sched_->regStats(reg, prefix + ".sched");
    reg.addCounter(prefix + ".instrs", &instrs_);
    reg.addCounter(prefix + ".alu_instrs", &aluInstrs_);
    reg.addCounter(prefix + ".branch_instrs", &branchInstrs_);
    reg.addCounter(prefix + ".divergent_branches", &divergentBranches_);
    reg.addCounter(prefix + ".idle_cycles", &idleCycles_);
    reg.addCounter(prefix + ".tlb_idle_cycles", &tlbIdleCycles_);
    reg.addCounter(prefix + ".blocks_completed", &blocksCompleted_);
    reg.addCounter(prefix + ".mem_blocked_cycles", &memBlockedCycles_);
    stalls_.regStats(reg, prefix);
}

} // namespace gpummu
