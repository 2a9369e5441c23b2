/**
 * @file
 * Experiment runner: build a GPU from a SystemConfig, run a
 * benchmark, and report speedups against a cached no-TLB baseline -
 * the normalization every figure in the paper uses.
 *
 * Experiment is thread-safe: the memo cache is mutex-guarded and each
 * key carries an in-flight latch (a shared_future), so when several
 * sweep workers ask for the same (benchmark, config) point - most
 * commonly the expensive no-TLB baseline - exactly one thread
 * simulates it and the rest block on the latch instead of duplicating
 * the run.
 */

#ifndef CORE_EXPERIMENT_HH
#define CORE_EXPERIMENT_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "core/system_config.hh"
#include "gpu/gpu_top.hh"
#include "workloads/workload.hh"

namespace gpummu {

class MemTraceWriter;
class SpanTracker;
class Telemetry;
class TraceSink;

/**
 * Everything one simulation produces: the aggregate RunStats plus a
 * machine-readable JSON dump of the full StatRegistry. The JSON is
 * byte-stable for identical runs, which the parallel-equivalence and
 * golden-stats tests assert.
 */
struct RunOutput
{
    RunStats stats;
    std::string statsJson;
};

/** Run one (benchmark, config) pair to completion. */
RunStats runConfig(BenchmarkId bench, const SystemConfig &cfg,
                   const WorkloadParams &params);

/**
 * As runConfig, but also capture the JSON stat dump, optionally with
 * observers armed. Each non-null observer is observation-only, must
 * outlive the call and belongs to exactly this run (sweeps must not
 * share one); any combination may be armed together, and each
 * records exactly what it would record alone. All are armed in one
 * place (core/run_support.hh) on the run's GpuTop and its shared L2
 * TLB or IOMMU before the cycle loop:
 *
 *  - @p trace records Chrome-trace events and registers its health
 *    stats ("trace.*"), the only stats any observer adds;
 *  - @p telemetry samples the registry every interval (its columns
 *    never include "trace.*") and profiles walk heat;
 *  - @p memtrace captures a replayable memory trace, finished after
 *    the run; capture on a TBC topology or a failing write is fatal;
 *  - @p spans tracks translation lifecycles and, with @p trace also
 *    armed, draws them as flow arrows in the trace.
 */
RunOutput runConfigFull(BenchmarkId bench, const SystemConfig &cfg,
                        const WorkloadParams &params,
                        TraceSink *trace = nullptr,
                        Telemetry *telemetry = nullptr,
                        MemTraceWriter *memtrace = nullptr,
                        SpanTracker *spans = nullptr);

/**
 * As runConfigFull, but over an already-constructed Workload — the
 * entry point for workloads that are not in the BenchmarkId registry
 * (TraceReplayWorkload).
 */
RunOutput runWorkloadFull(Workload &workload, const SystemConfig &cfg,
                          TraceSink *trace = nullptr,
                          Telemetry *telemetry = nullptr,
                          MemTraceWriter *memtrace = nullptr,
                          SpanTracker *spans = nullptr);

/**
 * Convenience harness for the benches: caches the no-TLB baseline
 * per benchmark (with the matching core kind and scheduler, as the
 * paper's figures do) and reports speedups against it. Safe to call
 * concurrently from sweep worker threads.
 */
class Experiment
{
  public:
    explicit Experiment(const WorkloadParams &params) : params_(params)
    {
    }

    Experiment(const Experiment &) = delete;
    Experiment &operator=(const Experiment &) = delete;

    /** Simulated cycles for (bench, cfg); memoized. */
    RunStats run(BenchmarkId bench, const SystemConfig &cfg);

    /**
     * Stats plus JSON dump for (bench, cfg); memoized. The reference
     * stays valid for the Experiment's lifetime.
     */
    const RunOutput &runFull(BenchmarkId bench,
                             const SystemConfig &cfg);

    /**
     * Speedup of @p cfg over @p baseline for @p bench (values < 1
     * are slowdowns, exactly as the paper plots them).
     */
    double speedup(BenchmarkId bench, const SystemConfig &cfg,
                   const SystemConfig &baseline);

    /** Simulations actually executed (cache misses), for tests. */
    std::size_t missCount() const;

    const WorkloadParams &params() const { return params_; }

  private:
    WorkloadParams params_;
    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<RunOutput>> cache_;
    std::size_t misses_ = 0;
};

/** Fixed-width table printer used by all bench binaries. */
class ReportTable
{
  public:
    explicit ReportTable(std::vector<std::string> columns);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

    /** Format a double with fixed precision. */
    static std::string num(double v, int precision = 3);
    static std::string pct(double v, int precision = 1);

  private:
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace gpummu

#endif // CORE_EXPERIMENT_HH
