/**
 * @file
 * Benchmark engine: simulates one workload and writes JSON lines.
 *
 * Usage:
 *   perfbench_engine --workload <name> --seed <n> --seconds <s>
 *                    --mode run|trace [--workdir <dir>]
 *
 * run    End-to-end measurement, benchmark tracing off. One warm-up
 *        pass (pass 0: checked, not timed by run.py), then passes over
 *        every point of the workload until <s> seconds have gone (at
 *        least three), timing set-up apart before each pass. One
 *        "run" line per (pass, point), and "ref" lines timing the
 *        host-speed reference (reference.hh) before each pass's
 *        set-ups and before every point.
 * trace  Per-layer measurement. One untraced pass; then, per point,
 *        a pass with memtrace capture and SpanTracker armed, and the
 *        captured stream driven through each layer (drivers.hh).
 *        Capture files go to <workdir> and are deleted after loading.
 *
 * Aggregation, the correctness gate and the metric names live in
 * run.py; this program only measures and reports raw samples. Exit
 * codes: 0 ok, 2 usage error, 1 a run or driver failed.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "drivers.hh"
#include "points.hh"
#include "reference.hh"
#include "sim/parse_util.hh"
#include "sim/stats.hh"
#include "telemetry/span.hh"
#include "trace/memtrace.hh"

using namespace gpummu;
using namespace perfbench;

namespace {

/** Measured passes of the run mode at least, after the warm-up. */
constexpr int kMinPasses = 3;
/** Set-up samples per point before each pass, taken back to back so
 *  their median is the warm steady-state cost, not the cold first one.
 *  A sample averages as many set-ups as fill kSetupSampleSeconds, so
 *  microsecond set-ups are not lost in timer and cache noise. */
constexpr int kSetupsPerPass = 20;
constexpr double kSetupSampleSeconds = 2e-3;
/** Host-speed reference chunks (reference.hh) timed before the set-ups
 *  and before every point of a pass. */
constexpr int kRefChunks = 3;
/** Repetitions of each per-layer driver; the median is reported. */
constexpr int kDriverReps = 3;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** One JSON object written as a single output line. */
class Line
{
  public:
    explicit Line(const char *type) { os_ << "{\"type\":\"" << type << '"'; }

    Line &
    str(const char *key, const std::string &v)
    {
        os_ << ",\"" << key << "\":\"" << jsonEscape(v) << '"';
        return *this;
    }

    Line &
    num(const char *key, double v)
    {
        os_ << ",\"" << key << "\":" << jsonNum(v);
        return *this;
    }

    Line &
    count(const char *key, std::uint64_t v)
    {
        os_ << ",\"" << key << "\":" << v;
        return *this;
    }

    /** @p json must already be a JSON value. */
    Line &
    raw(const char *key, const std::string &json)
    {
        os_ << ",\"" << key << "\":" << json;
        return *this;
    }

    void
    emit()
    {
        os_ << "}\n";
        std::cout << os_.str() << std::flush;
    }

  private:
    std::ostringstream os_;
};

void
emitResult(Line &&line, const std::string &point, const PointResult &r,
           double wall, double cpu)
{
    line.str("point", point)
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .count("cycles", r.cycles)
        .count("instructions", r.instructions)
        .count("events", r.events)
        .count("fast_forwarded", r.fastForwarded)
        .count("cores", r.cores)
        .str("digest", r.digest)
        .count("spans_opened", r.spansOpened)
        .count("spans_closed", r.spansClosed)
        .count("span_queueing", r.spanQueueing)
        .count("span_latency", r.spanLatency)
        .count("trace_events", r.traceEvents)
        .count("telemetry_intervals", r.telemetryIntervals)
        .emit();
}

struct Timed
{
    PointResult result;
    double wall = 0.0;
    double cpu = 0.0;
};

Timed
timedRun(const WorkloadDef &w, std::size_t index, std::uint64_t seed,
         const Arming &arm = {})
{
    const double c0 = cpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    Timed t;
    t.result = runPoint(w, index, seed, arm);
    t.wall = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
    t.cpu = cpuSeconds() - c0;
    return t;
}

void
emitSetups(const WorkloadDef &w, std::size_t index, std::uint64_t seed,
           const std::string &name, int pass)
{
    for (int r = 0; r < kSetupsPerPass; ++r) {
        double total = 0.0;
        int n = 0;
        do {
            total += timeSetup(w, index, seed);
            ++n;
        } while (total < kSetupSampleSeconds);
        Line("setup")
            .str("point", name)
            .count("pass", static_cast<std::uint64_t>(pass))
            .num("s", total / n)
            .emit();
    }
}

/** Time kRefChunks reference chunks, one "ref" line each. Throws when
 *  a chunk computes a different result from the first, so a broken
 *  reference cannot pass silently. */
void
sampleReference(HostReference &ref, std::uint64_t expected, int pass)
{
    for (int i = 0; i < kRefChunks; ++i) {
        const double s = ref.run();
        if (ref.checksum() != expected)
            throw std::runtime_error("host-speed reference changed its "
                                     "result");
        Line("ref")
            .count("pass", static_cast<std::uint64_t>(pass))
            .num("s", s)
            .emit();
    }
}

int
runMode(const WorkloadDef &w, std::uint64_t seed, double seconds)
{
    const std::vector<std::string> names = w.pointNames();
    HostReference ref;
    ref.run();
    const std::uint64_t refSum = ref.checksum();
    auto start = std::chrono::steady_clock::now();
    int failures = 0;
    for (int pass = 0;; ++pass) {
        if (pass == 1)
            start = std::chrono::steady_clock::now();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (pass > kMinPasses && elapsed >= seconds)
            break;
        // Host-speed samples between all measured stretches, so they
        // cover the same minutes as the simulation (reference.hh).
        sampleReference(ref, refSum, pass);
        for (std::size_t i = 0; i < names.size(); ++i)
            emitSetups(w, i, seed, names[i], pass);
        for (std::size_t i = 0; i < names.size(); ++i) {
            sampleReference(ref, refSum, pass);
            try {
                const Timed t = timedRun(w, i, seed);
                Line line("run");
                line.count("pass", static_cast<std::uint64_t>(pass));
                emitResult(std::move(line), names[i], t.result, t.wall,
                           t.cpu);
            } catch (const std::exception &e) {
                ++failures;
                Line("error")
                    .str("point", names[i])
                    .count("pass", static_cast<std::uint64_t>(pass))
                    .str("what", e.what())
                    .emit();
            }
        }
    }
    Line("end").count("peak_rss_kb", static_cast<std::uint64_t>(
                                         peakRssKb()))
        .emit();
    return failures ? 1 : 0;
}

void
emitLayers(const std::string &point, const std::vector<LayerTiming> &ls)
{
    for (const LayerTiming &lt : ls) {
        std::ostringstream reps;
        reps << '[';
        for (std::size_t i = 0; i < lt.repSeconds.size(); ++i)
            reps << (i ? "," : "") << jsonNum(lt.repSeconds[i]);
        reps << ']';
        Line("layer")
            .str("point", point)
            .str("layer", lt.layer)
            .count("calls", lt.calls)
            .count("stream", lt.stream)
            .num("ns_per_call", lt.nsPerCall)
            .raw("rep_s", reps.str())
            .emit();
    }
}

/** Load the capture at @p path, then delete the file. */
MemTraceData
loadCapture(const std::string &path)
{
    MemTraceData data;
    std::string err;
    if (!loadMemTraceFile(path, data, err))
        throw std::runtime_error("memtrace reload: " + err);
    std::filesystem::remove(path);
    return data;
}

std::string
fileSafe(std::string s)
{
    for (char &c : s) {
        if (c == '/' || c == '+')
            c = '_';
    }
    return s;
}

int
traceMode(const WorkloadDef &w, std::uint64_t seed,
          const std::string &workdir)
{
    std::filesystem::create_directories(workdir);
    SpanLog log;
    const int root = log.open(w.name, -1);
    const std::vector<std::string> names = w.pointNames();
    const WorkloadParams params = paramsFor(w, seed);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const int pspan = log.open(names[i], root);

        int s = log.open("setup", pspan);
        emitSetups(w, i, seed, names[i], 0);
        log.close(s);

        s = log.open("run.untraced", pspan);
        const Timed plain = timedRun(w, i, seed);
        log.close(s);
        Line line("untraced");
        emitResult(std::move(line.raw("stats", plain.result.statsJson)),
                   names[i], plain.result, plain.wall, plain.cpu);

        if (w.multiTenant) {
            // The workload's own run is the armed one; the unarmed
            // run prices the observers.
            s = log.open("run.unarmed", pspan);
            Arming unarmed;
            unarmed.observers = false;
            const Timed bare = timedRun(w, i, seed, unarmed);
            log.close(s);
            emitResult(Line("unarmed"), names[i], bare.result, bare.wall,
                       bare.cpu);

            // Per-layer streams: each tenant captured alone on the
            // same IOMMU machine (lane addresses are per-thread
            // functions of the program, so the stream is the one the
            // tenant feeds the shared run).
            const MultiTenantConfig mt = multiTenantConfig(w, seed);
            for (const TenantSpec &spec : mt.tenants) {
                const std::string tp = spec.name + "/" + mt.system.name;
                const int tspan = log.open(tp, pspan);
                const std::string path =
                    workdir + "/" + fileSafe(tp) + ".memtrace";
                MemTraceWriter writer(path);
                s = log.open("run.capture", tspan);
                const RunOutput cap =
                    runConfigFull(spec.bench, mt.system, params, nullptr,
                                  nullptr, &writer);
                log.close(s);
                const MemTraceData data = loadCapture(path);
                Line("capture")
                    .str("point", tp)
                    .count("accesses", writer.accessesRecorded())
                    .count("cycles", cap.stats.cycles)
                    .count("mem_instrs", cap.stats.memInstructions)
                    .emit();
                emitLayers(tp, driveLayers(spec.bench, mt.system, params,
                                           data, kDriverReps, log,
                                           tspan));
                log.close(tspan);
            }
        } else {
            const Point &p = w.points[i];
            const std::string path =
                workdir + "/" + fileSafe(names[i]) + ".memtrace";
            MemTraceWriter writer(path);
            SpanTracker spans;
            Arming arm;
            arm.memtrace = &writer;
            arm.spans = &spans;
            s = log.open("run.traced", pspan);
            const Timed traced = timedRun(w, i, seed, arm);
            log.close(s);
            Line tline("traced");
            tline.count("accesses", writer.accessesRecorded());
            emitResult(std::move(tline), names[i], traced.result,
                       traced.wall, traced.cpu);
            const MemTraceData data = loadCapture(path);
            const int dspan = log.open("drivers", pspan);
            emitLayers(names[i], driveLayers(p.bench, p.cfg, params, data,
                                             kDriverReps, log, dspan));
            log.close(dspan);
        }
        log.close(pspan);
    }
    log.close(root);
    for (const HostSpan &hs : log.spans()) {
        Line("span")
            .count("id", static_cast<std::uint64_t>(hs.id))
            .num("parent", hs.parent)
            .str("name", hs.name)
            .num("start", hs.start)
            .num("end", hs.end)
            .emit();
    }
    Line("end").count("peak_rss_kb", static_cast<std::uint64_t>(
                                         peakRssKb()))
        .emit();
    return 0;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench_engine: " << why << "\n"
              << "usage: perfbench_engine --workload <name> --seed <n> "
                 "--seconds <s> --mode run|trace [--workdir <dir>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string mode = "run";
    std::string workdir = ".";
    std::uint64_t seed = 42;
    double seconds = 10.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for '" + arg + "'");
        const std::string val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--mode")
            mode = val;
        else if (arg == "--workdir")
            workdir = val;
        else if (arg == "--seed")
            ok = parseNum(val, seed);
        else if (arg == "--seconds")
            ok = parseDouble(val, seconds) && seconds >= 0.0;
        else
            return usage("unknown argument '" + arg + "'");
        if (!ok)
            return usage("bad value '" + val + "' for " + arg);
    }
    WorkloadDef w;
    if (!findWorkload(workload, w))
        return usage("unknown workload '" + workload + "'");
    if (mode != "run" && mode != "trace")
        return usage("unknown mode '" + mode + "'");

    std::string points = "[";
    for (const std::string &n : w.pointNames())
        points += (points.size() > 1 ? ",\"" : "\"") + jsonEscape(n) + "\"";
    Line("meta")
        .str("workload", w.name)
        .str("mode", mode)
        .count("seed", seed)
        .num("scale", w.scale)
        .raw("points", points + "]")
        .emit();
    try {
        return mode == "run" ? runMode(w, seed, seconds)
                             : traceMode(w, seed, workdir);
    } catch (const std::exception &e) {
        Line("error").str("what", e.what()).emit();
        return 1;
    }
}
