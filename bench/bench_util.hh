/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Every binary accepts:
 *   --scale=<f>   workload scale factor (default 0.25 for speed;
 *                 larger values approach the paper's footprints)
 *   --seed=<n>    workload seed
 *   --bench=<name> run a single benchmark instead of all nine
 *   --jobs=<n>    sweep worker threads (default: GPUMMU_JOBS env,
 *                 else all hardware threads; results are identical
 *                 at any job count)
 *   --trace=<file>         write Chrome trace-event JSON (open in
 *                          Perfetto or chrome://tracing)
 *   --trace-filter=<pfx>   restrict the trace to categories whose
 *                          name starts with <pfx> (tlb, ptw,
 *                          coalescer, l1, l2, l2tlb, dram, core)
 *   --sample-interval=<n>  telemetry sampling interval in cycles
 *                          (enables telemetry)
 *   --sample-out=<file>    write the interval series to <file>; the
 *                          extension picks the format (.csv or .json)
 *   --report=<file>        write a self-contained HTML run report
 *   --capture-trace=<file> write a replayable memtrace (see
 *                          bench/trace_replay)
 *   --spans=<file>         export the translation-lifecycle per-stage
 *                          latency decomposition; the extension picks
 *                          the format (.csv or .json). Combined with
 *                          --trace, the Chrome trace carries span
 *                          flow arrows; combined with --report, the
 *                          HTML report gains a
 *                          translation-latency-anatomy section.
 *
 * After the sweep, one observation-only re-run of one point serves
 * every requested export (observeRun); arming it never changes any
 * table number.
 *
 * All numeric flags parse strictly (sim/parse_util.hh): the whole
 * value must be a number — "--jobs=4abc" is an error, not 4.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "sim/parse_util.hh"
#include "telemetry/report.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"
#include "trace/trace.hh"

namespace gpummu {
namespace benchutil {

/**
 * The exports one armed run can serve, as requested on a command
 * line; observeRun() honors them. Shared by every bench binary's
 * Options and by front ends with their own flag parsing.
 */
struct ObserveOptions
{
    /** Chrome trace output path; empty disables tracing. */
    std::string traceFile;
    /** Category-name prefix filter for the traced run. */
    std::string traceFilter;
    /** Telemetry sampling interval in cycles; 0 disables telemetry. */
    Cycle sampleInterval = 0;
    /** Interval-series output path (.csv or .json). */
    std::string sampleOut;
    /** HTML run-report output path. */
    std::string reportFile;
    /** Memtrace capture output path; empty disables capture. */
    std::string captureTrace;
    /** Span export path (.csv or .json); empty disables spans. */
    std::string spansFile;
};

struct Options : ObserveOptions
{
    WorkloadParams params;
    std::vector<BenchmarkId> benchmarks;
    /** Sweep worker threads; 0 resolves via GPUMMU_JOBS. */
    unsigned jobs = 0;
};

inline bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/**
 * Parse the shared bench CLI into @p opt. Returns false with a
 * one-line message in @p err on any malformed flag — numeric values
 * parse strictly (full token, no locale, overflow rejected), so
 * "--jobs=4abc" and "--seed=-1" are errors rather than garbage.
 * Exposed separately from parse() so tests can pin the rejects
 * without spawning processes.
 */
inline bool
tryParse(int argc, char **argv, Options &opt, std::string &err,
         double default_scale = 0.25)
{
    opt = Options{};
    opt.params.scale = default_scale;
    opt.params.seed = 42;
    opt.benchmarks = allBenchmarks();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *key) -> const char * {
            const std::string k = std::string(key) + "=";
            return arg.rfind(k, 0) == 0 ? arg.c_str() + k.size()
                                        : nullptr;
        };
        if (const char *v = value("--scale")) {
            if (!parseDouble(v, opt.params.scale) ||
                opt.params.scale <= 0.0) {
                err = "--scale wants a positive number, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--jobs")) {
            if (!parseNum(v, opt.jobs) || opt.jobs == 0) {
                err = "--jobs wants a positive int, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--seed")) {
            if (!parseNum(v, opt.params.seed)) {
                err = "--seed wants a non-negative int, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--trace")) {
            opt.traceFile = v;
            if (opt.traceFile.empty()) {
                err = "--trace wants an output path";
                return false;
            }
        } else if (const char *v = value("--trace-filter")) {
            opt.traceFilter = v;
            if (!traceFilterMatchesAny(opt.traceFilter)) {
                err = "--trace-filter=" + std::string(v) +
                      " matches no category; valid: " +
                      traceCatNames();
                return false;
            }
        } else if (const char *v = value("--sample-interval")) {
            if (!parseNum(v, opt.sampleInterval) ||
                opt.sampleInterval == 0) {
                err = "--sample-interval wants a positive cycle "
                      "count, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--sample-out")) {
            opt.sampleOut = v;
            if (!endsWith(opt.sampleOut, ".csv") &&
                !endsWith(opt.sampleOut, ".json")) {
                err = "--sample-out wants a .csv or .json path";
                return false;
            }
        } else if (const char *v = value("--report")) {
            opt.reportFile = v;
            if (opt.reportFile.empty()) {
                err = "--report wants an output path";
                return false;
            }
        } else if (const char *v = value("--capture-trace")) {
            opt.captureTrace = v;
            if (opt.captureTrace.empty()) {
                err = "--capture-trace wants an output path";
                return false;
            }
        } else if (const char *v = value("--spans")) {
            opt.spansFile = v;
            if (!endsWith(opt.spansFile, ".csv") &&
                !endsWith(opt.spansFile, ".json")) {
                err = "--spans wants a .csv or .json path";
                return false;
            }
        } else if (const char *v = value("--bench")) {
            opt.benchmarks.clear();
            for (BenchmarkId id : allBenchmarks()) {
                if (benchmarkName(id) == v)
                    opt.benchmarks.push_back(id);
            }
            if (opt.benchmarks.empty()) {
                err = "unknown benchmark: " + std::string(v);
                return false;
            }
        } else {
            err = "unknown option: " + arg;
            return false;
        }
    }
    if (opt.sampleInterval == 0 &&
        (!opt.sampleOut.empty() || !opt.reportFile.empty())) {
        err = "--sample-out/--report need "
              "--sample-interval=<cycles>";
        return false;
    }
    if (opt.sampleInterval != 0 && opt.sampleOut.empty() &&
        opt.reportFile.empty()) {
        err = "--sample-interval needs --sample-out=<file> and/or "
              "--report=<file>";
        return false;
    }
    return true;
}

inline Options
parse(int argc, char **argv, double default_scale = 0.25)
{
    Options opt;
    std::string err;
    if (!tryParse(argc, argv, opt, err, default_scale)) {
        std::cerr << err << "\n";
        std::exit(1);
    }
    return opt;
}

/**
 * Simulate the (benchmark x config) cross product on @p jobs worker
 * threads, filling @p exp's memo cache so the serial table-printing
 * code below each figure gets every value as a cache hit. Shared
 * baselines are simulated once across the whole grid.
 */
inline void
prewarm(Experiment &exp, const std::vector<BenchmarkId> &benchmarks,
        const std::vector<SystemConfig> &configs, unsigned jobs)
{
    std::vector<SweepPoint> grid;
    grid.reserve(benchmarks.size() * configs.size());
    for (BenchmarkId id : benchmarks) {
        for (const SystemConfig &cfg : configs)
            grid.push_back(SweepPoint{id, cfg});
    }
    SweepRunner(exp, jobs).run(grid);
}

/** One simulation with the given observers armed (any may be
 *  null); observeRun() supplies them. */
using ArmedRun = std::function<void(TraceSink *, Telemetry *,
                                    MemTraceWriter *, SpanTracker *)>;

/**
 * Serve every export @p obs requests - Chrome trace, span table,
 * telemetry samples, HTML report, memtrace capture - from one armed
 * simulation, @p run, and write a status line per export to @p log,
 * tagged with @p label. Observers are observation-only, so the run
 * reproduces the unarmed one bit for bit and each export is
 * byte-identical to a run armed with that observer alone. With
 * --trace and --spans together, the trace carries the span flow
 * arrows; with --report and --spans, the report gains the
 * translation-latency-anatomy section. A failed write, an empty span
 * table (no translation request observed) or a report with an empty
 * hot-page table exits 1.
 */
inline void
observeRun(const ObserveOptions &obs, const std::string &label,
           std::ostream &log, const ArmedRun &run)
{
    const bool tracing = !obs.traceFile.empty();
    const bool spanning = !obs.spansFile.empty();
    if (!tracing && !spanning && obs.sampleInterval == 0 &&
        obs.captureTrace.empty()) {
        return;
    }
    TraceSink sink;
    if (!obs.traceFilter.empty())
        sink.setFilter(obs.traceFilter);
    std::unique_ptr<Telemetry> telemetry;
    if (obs.sampleInterval != 0) {
        TelemetryConfig tcfg;
        tcfg.sampleInterval = obs.sampleInterval;
        telemetry = std::make_unique<Telemetry>(tcfg);
    }
    SpanTracker spans;
    std::unique_ptr<MemTraceWriter> writer;
    if (!obs.captureTrace.empty())
        writer = std::make_unique<MemTraceWriter>(obs.captureTrace);
    run(tracing ? &sink : nullptr, telemetry.get(), writer.get(),
        spanning ? &spans : nullptr);

    auto fail = [](const std::string &msg) {
        std::cerr << msg << "\n";
        std::exit(1);
    };
    const std::string tag = " [" + label + "]\n";
    if (tracing) {
        if (!sink.writeChromeTraceFile(obs.traceFile))
            fail("failed to write trace: " + obs.traceFile);
        log << "trace: " << sink.size() << " events ("
            << sink.dropped() << " dropped) -> " << obs.traceFile
            << tag;
    }
    if (spanning) {
        if (spans.empty()) {
            fail("span table is empty: no translation requests were "
                 "observed [" +
                 label + "]");
        }
        const bool ok = endsWith(obs.spansFile, ".csv")
                            ? spans.writeCsvFile(obs.spansFile)
                            : spans.writeJsonFile(obs.spansFile);
        if (!ok)
            fail("failed to write spans: " + obs.spansFile);
        spans.writeSummary(log);
        log << "spans: " << spans.spansClosed() << " closed ("
            << spans.spansOpen() << " open at end) -> "
            << obs.spansFile << tag;
    }
    if (telemetry && !obs.sampleOut.empty()) {
        const bool ok = endsWith(obs.sampleOut, ".csv")
                            ? telemetry->writeCsvFile(obs.sampleOut)
                            : telemetry->writeJsonFile(obs.sampleOut);
        if (!ok)
            fail("failed to write samples: " + obs.sampleOut);
        log << "telemetry: " << telemetry->sampler().intervals().size()
            << " intervals -> " << obs.sampleOut << tag;
    }
    if (telemetry && !obs.reportFile.empty()) {
        if (!writeHtmlReportFile(obs.reportFile, *telemetry,
                                 spanning ? &spans : nullptr)) {
            fail("report has an empty hot-page table (no walks "
                 "attributed): " +
                 obs.reportFile);
        }
        log << "report: " << telemetry->heat().pages().size()
            << " pages, " << telemetry->heat().lines().size()
            << " page-table lines -> " << obs.reportFile << tag;
    }
    if (writer) {
        log << "memtrace: " << writer->accessesRecorded()
            << " accesses, " << writer->branchesRecorded()
            << " branches -> " << obs.captureTrace << tag;
    }
}

/** observeRun() on one (benchmark, config) point. */
inline void
observeRun(const ObserveOptions &obs, BenchmarkId bench,
           const SystemConfig &cfg, const WorkloadParams &params,
           std::ostream &log)
{
    observeRun(obs, benchmarkName(bench) + " / " + cfg.name, log,
               [&](TraceSink *trace, Telemetry *telemetry,
                   MemTraceWriter *memtrace, SpanTracker *spans) {
                   runConfigFull(bench, cfg, params, trace, telemetry,
                                 memtrace, spans);
               });
}

/**
 * Honor the export flags after a bench's sweep: one armed re-run of
 * @p cfg on the first selected benchmark (narrow with
 * --bench=<name>). A sink belongs to exactly one run, so this is a
 * separate simulation; the table numbers above are untouched.
 */
inline void
maybeObserveRun(const Options &opt, const SystemConfig &cfg)
{
    observeRun(opt, opt.benchmarks.front(), cfg, opt.params,
               std::cerr);
}

/** Geometric mean helper for "average speedup" rows. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace benchutil
} // namespace gpummu

#endif // BENCH_BENCH_UTIL_HH
