/**
 * @file
 * Per-layer drivers: replay one captured access stream through each
 * layer's public entry points and time the calls from outside the
 * simulator.
 *
 * A captured memtrace holds every dynamic memory instruction of a run
 * with its lane addresses. From it the drivers derive, untimed, the
 * streams each layer sees (coalesced pages and lines, L1-TLB misses,
 * physical lines, L1 misses) and then time the layer alone on that
 * stream:
 *
 *   gpu.coalescer    coalesceInto, one call per memory instruction
 *   mmu.tlb          Tlb::lookup (+ fill on a miss), one per page
 *   mmu.ptw          PageWalkers::requestBatch + EventQueue::runUntil
 *   mmu.l2tlb        L2Tlb::access / fill (shared-L2 designs only)
 *   mem.l1           L1Cache::access, one per line (+ MSHR retries)
 *   mem.system       MemorySystem::access, one per L1 miss
 *   vm.walk          PageTable::walk, one per L1-TLB miss
 *   workloads.addrgen  KernelProgram::genAddr, one per active lane
 *   sim.eventq       EventQueue::scheduleRaw + runUntil, one event
 *                    per memory instruction
 *
 * Every timed batch is wrapped in a benchmark-side span. Component
 * state is rebuilt before each repetition, so every repetition does
 * identical work and the modelled TLBs and caches start cold.
 */

#ifndef PERFBENCH_DRIVERS_HH
#define PERFBENCH_DRIVERS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "trace/memtrace.hh"
#include "workloads/workload.hh"

namespace perfbench {

/** One benchmark-side span: a batch of calls into one layer. */
struct HostSpan
{
    int id = 0;
    int parent = -1; ///< -1 for a root span
    std::string name;
    double start = 0.0; ///< seconds since the log's epoch
    double end = 0.0;
};

/** In-memory span log; written out when the benchmark ends. */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span under @p parent; returns its id. */
    int open(const std::string &name, int parent);
    void close(int id);

    const std::vector<HostSpan> &spans() const { return spans_; }
    double seconds(int id) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<HostSpan> spans_;
};

/** Timing of one layer driven over one stream. */
struct LayerTiming
{
    std::string layer;
    /** Calls the driver made per repetition (its own count). */
    std::uint64_t calls = 0;
    /** Length of the stream the calls were derived from, counted
     *  independently of the driver (self-check: equal to calls). */
    std::uint64_t stream = 0;
    /** Host seconds of each repetition. */
    std::vector<double> repSeconds;
    /** Median host ns per call. */
    double nsPerCall = 0.0;
};

/**
 * Drive every layer that @p cfg contains over the captured stream
 * @p trace of benchmark @p bench at @p params. @p reps repetitions per
 * layer, each a span under @p parent. The address space is rebuilt
 * from the workload, so the page table is the run's.
 */
std::vector<LayerTiming> driveLayers(gpummu::BenchmarkId bench,
                                     const gpummu::SystemConfig &cfg,
                                     const gpummu::WorkloadParams &params,
                                     const gpummu::MemTraceData &trace,
                                     int reps, SpanLog &log,
                                     int parent);

} // namespace perfbench

#endif // PERFBENCH_DRIVERS_HH
