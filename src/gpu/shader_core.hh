/**
 * @file
 * Abstract shader core, implemented by SimtCore (per-warp stacks) and
 * TbcCore (thread block compaction). GpuTop drives cores through
 * this interface only.
 */

#ifndef GPU_SHADER_CORE_HH
#define GPU_SHADER_CORE_HH

#include <cstdint>
#include <string>

#include "sim/probes.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/stall_accounting.hh"

namespace gpummu {

class MemTraceWriter;
class Mmu;
class L1Cache;
class MemoryStage;

class ShaderCore
{
  public:
    virtual ~ShaderCore() = default;

    /**
     * Advance one cycle. Cores are event-driven: the cycle loop ticks
     * a core only at cycles >= nextTick(), and a core pushes
     * nextTick() out while no warp can issue. Cycles it sleeps
     * through only repeat the last tick's stall charges; the core
     * applies them when it next ticks or settles. Ticking a core at
     * a cycle it did not ask for is always allowed.
     */
    virtual void tick(Cycle now) = 0;

    /** First cycle this core must tick at. Cores that never sleep
     *  (TbcCore) leave it at 0 and are ticked every cycle. */
    Cycle nextTick() const { return nextTick_; }

    /**
     * Apply every charge still pending for cycles before @p cycle
     * (stall segments of waiting warps, idle counters of slept
     * cycles). The cycle loop settles before a telemetry boundary
     * samples the counters and once after its last cycle.
     */
    virtual void settle(Cycle cycle) { (void)cycle; }

    virtual bool canAcceptBlock() const = 0;
    virtual void launchBlock(unsigned global_block_id) = 0;
    /** No resident work left. */
    virtual bool idle() const = 0;

    virtual Mmu &mmu() = 0;
    virtual L1Cache &l1() = 0;
    virtual MemoryStage &memStage() = 0;

    /** Arm the observers on this core's L1, MMU stack and memory
     *  stage (observation-only), labelled with the core id. */
    virtual void observe(const Probes &probes) = 0;

    /**
     * Attach a memory-trace capture writer (observation-only, may be
     * null to detach). Returns false when this core type cannot
     * capture (TBC compacts warps, so recorded warp ids would not
     * replay); detaching always succeeds.
     */
    virtual bool
    setMemTraceWriter(MemTraceWriter *writer)
    {
        return writer == nullptr;
    }

    /** End-of-run bookkeeping before stats are dumped (folds the
     *  per-warp stall ledger into its histograms). */
    virtual void finalizeRun() { stallAccounting().finalize(); }

    /** Per-warp attributed stall-cycle ledger. */
    virtual WarpStallAccounting &stallAccounting() = 0;
    const WarpStallAccounting &
    stallAccounting() const
    {
        return const_cast<ShaderCore *>(this)->stallAccounting();
    }

    virtual std::uint64_t instructionsIssued() const = 0;
    virtual std::uint64_t idleCycles() const = 0;

    virtual void regStats(StatRegistry &reg,
                          const std::string &prefix) = 0;

  protected:
    /** Tick no later than @p cycle; 0 means the next cycle the loop
     *  visits. */
    void
    wakeAt(Cycle cycle)
    {
        if (cycle < nextTick_)
            nextTick_ = cycle;
    }

    Cycle nextTick_ = 0;
};

} // namespace gpummu

#endif // GPU_SHADER_CORE_HH
