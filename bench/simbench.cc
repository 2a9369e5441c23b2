/**
 * @file
 * Simulator-throughput benchmark (cycles-simulated per second).
 *
 * Runs a fixed suite of (workload, config) points — the six paper
 * workloads under the augmented TLB, plus the shared-L2-TLB and
 * IOMMU presets — and measures how fast the *simulator* gets through
 * them: cycles/sec and events/sec of wall clock. The deterministic
 * outputs (cycles, events fired, instructions) are recorded next to
 * the timings so two checkouts can be compared point-by-point and
 * any modelling drift is immediately visible.
 *
 * Usage:
 *   simbench [--scale=<f>] [--seed=<n>] [--repeat=<n>] [--quick]
 *            [--pr=<n>] [--bench-out=<path>]
 *            [--compare=<old.json>] [--regress-tol=<frac>]
 *
 *   --scale       workload scale factor (default 0.25)
 *   --seed        workload seed (default 42)
 *   --repeat      timed repeats per point; the best wall time is
 *                 reported, and every repeat must reproduce identical
 *                 cycles/events (the harness self-check; default 3)
 *   --quick       only the memcached and mummergpu augmented-TLB
 *                 points (the CI smoke configuration)
 *   --pr          PR sequence number; default output path is
 *                 BENCH_<pr>.json in the current directory, which
 *                 must not exist yet (a committed baseline is never
 *                 overwritten implicitly)
 *   --bench-out   explicit output path (overrides --pr naming;
 *                 overwrites)
 *   --compare     diff this run against an older BENCH_<n>.json:
 *                 per-point cycles/sec deltas for every point present
 *                 in both files, with a note when the deterministic
 *                 cycle/event counts drifted (a modelling change, so
 *                 the throughput delta is not apples-to-apples)
 *   --regress-tol fraction by which a common point's cycles/sec may
 *                 drop before --compare fails the run (default 1.0,
 *                 i.e. informational only; --regress-tol=0.15 fails
 *                 on any >15% throughput regression)
 *
 * Exit codes: 0 ok; 1 self-check, validation or --compare regression
 * failure; 2 bad usage (including a non-positive --scale), an
 * unwritable output path, or an existing default output file.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "sim/parse_util.hh"
#include "sim/perf_report.hh"

using namespace gpummu;

namespace {

struct SuitePoint
{
    BenchmarkId bench;
    std::string config;
    SystemConfig cfg;
};

std::vector<SuitePoint>
buildSuite(bool quick)
{
    std::vector<SuitePoint> suite;
    if (quick) {
        suite.push_back({BenchmarkId::Memcached, "augmented_tlb",
                         presets::augmentedTlb()});
        suite.push_back({BenchmarkId::Mummergpu, "augmented_tlb",
                         presets::augmentedTlb()});
        return suite;
    }
    for (BenchmarkId id : allBenchmarks())
        suite.push_back({id, "augmented_tlb", presets::augmentedTlb()});
    suite.push_back({BenchmarkId::Bfs, "shared_l2_tlb",
                     presets::withSharedL2Tlb(presets::augmentedTlb())});
    suite.push_back({BenchmarkId::Bfs, "iommu", presets::iommu()});
    return suite;
}

bool
parseArg(const std::string &arg, const std::string &key,
         std::string &out)
{
    const std::string pfx = key + "=";
    if (arg.rfind(pfx, 0) != 0)
        return false;
    out = arg.substr(pfx.size());
    return true;
}

/**
 * Diff @p report against the archived BENCH json at @p path:
 * per-point cycles/sec deltas for every point id present in both.
 * Returns the worst throughput ratio (new/old) across comparable
 * points, or a negative value when the old file cannot be read or
 * parsed (the caller treats that as usage error, not a regression).
 * Points whose deterministic cycles/events drifted are flagged: a
 * modelling change makes the wall-clock delta not apples-to-apples.
 */
double
comparePoints(const BenchReport &report, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::cerr << "simbench: --compare: cannot read '" << path
                  << "'\n";
        return -1.0;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonValue doc;
    std::string err;
    if (!parseJson(buf.str(), doc, &err)) {
        std::cerr << "simbench: --compare: " << err << "\n";
        return -1.0;
    }
    const JsonValue *points = doc.find("points");
    if (points == nullptr ||
        points->kind != JsonValue::Kind::Array) {
        std::cerr << "simbench: --compare: '" << path
                  << "' has no points array\n";
        return -1.0;
    }
    const JsonValue *old_pr = doc.find("pr");
    std::cout << "\ncomparison vs " << path;
    if (old_pr != nullptr &&
        old_pr->kind == JsonValue::Kind::Number) {
        std::cout << " (pr " << static_cast<int>(old_pr->number)
                  << ")";
    }
    std::cout << ":\n";

    double worst_ratio = 1e300;
    std::size_t compared = 0;
    for (const BenchMeasurement &m : report.points) {
        const JsonValue *old_pt = nullptr;
        for (const JsonValue &p : points->items) {
            const JsonValue *id = p.find("point");
            if (id != nullptr &&
                id->kind == JsonValue::Kind::String &&
                id->str == m.point) {
                old_pt = &p;
                break;
            }
        }
        if (old_pt == nullptr) {
            std::cout << "  " << m.point
                      << ": not in old report (new point)\n";
            continue;
        }
        const JsonValue *old_cps = old_pt->find("cycles_per_sec");
        if (old_cps == nullptr ||
            old_cps->kind != JsonValue::Kind::Number ||
            !(old_cps->number > 0.0)) {
            std::cout << "  " << m.point
                      << ": old report lacks a usable "
                         "cycles_per_sec\n";
            continue;
        }
        const double ratio = m.cyclesPerSec() / old_cps->number;
        const double delta_pct = (ratio - 1.0) * 100.0;
        std::cout << "  " << m.point << ": "
                  << static_cast<std::uint64_t>(old_cps->number)
                  << " -> "
                  << static_cast<std::uint64_t>(m.cyclesPerSec())
                  << " cyc/s (" << (delta_pct >= 0.0 ? "+" : "")
                  << delta_pct << "%)";
        const JsonValue *oc = old_pt->find("cycles");
        const JsonValue *oe = old_pt->find("events_fired");
        const bool drifted =
            (oc != nullptr && oc->kind == JsonValue::Kind::Number &&
             static_cast<std::uint64_t>(oc->number) != m.cycles) ||
            (oe != nullptr && oe->kind == JsonValue::Kind::Number &&
             static_cast<std::uint64_t>(oe->number) !=
                 m.eventsFired);
        if (drifted) {
            std::cout << " [deterministic outputs drifted: "
                         "modelling change, not comparable]";
        } else {
            worst_ratio = std::min(worst_ratio, ratio);
            ++compared;
        }
        std::cout << "\n";
    }
    if (compared == 0) {
        std::cout << "  (no comparable points)\n";
        return 1.0;
    }
    return worst_ratio;
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadParams params;
    params.scale = 0.25;
    params.seed = 42;
    int repeat = 3;
    int pr = 10;
    bool quick = false;
    std::string out_path;
    std::string compare_path;
    double regress_tol = 1.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string val;
        // Strict full-token parses (sim/parse_util.hh): trailing
        // garbage, overflow and locale quirks are errors, never 0.
        if (parseArg(arg, "--scale", val)) {
            if (!parseDouble(val, params.scale) ||
                !(params.scale > 0.0)) {
                std::cerr << "simbench: --scale wants a positive "
                             "number, got '"
                          << val << "'\n";
                return 2;
            }
        } else if (parseArg(arg, "--seed", val)) {
            if (!parseNum(val, params.seed)) {
                std::cerr << "simbench: bad --seed '" << val
                          << "'\n";
                return 2;
            }
        } else if (parseArg(arg, "--repeat", val)) {
            if (!parseNum(val, repeat)) {
                std::cerr << "simbench: bad --repeat '" << val
                          << "'\n";
                return 2;
            }
        } else if (parseArg(arg, "--pr", val)) {
            if (!parseNum(val, pr)) {
                std::cerr << "simbench: bad --pr '" << val << "'\n";
                return 2;
            }
        } else if (parseArg(arg, "--bench-out", val)) {
            out_path = val;
        } else if (parseArg(arg, "--compare", val)) {
            compare_path = val;
            if (compare_path.empty()) {
                std::cerr << "simbench: --compare wants a path\n";
                return 2;
            }
        } else if (parseArg(arg, "--regress-tol", val)) {
            if (!parseDouble(val, regress_tol) ||
                !(regress_tol >= 0.0) || !(regress_tol <= 1.0)) {
                std::cerr << "simbench: --regress-tol wants a "
                             "fraction in [0,1], got '"
                          << val << "'\n";
                return 2;
            }
        } else if (arg == "--quick") {
            quick = true;
        } else {
            std::cerr << "simbench: unknown argument '" << arg
                      << "'\n";
            return 2;
        }
    }
    if (repeat < 1) {
        std::cerr << "simbench: --repeat must be >= 1\n";
        return 2;
    }
    if (out_path.empty()) {
        out_path = "BENCH_" + std::to_string(pr) + ".json";
        if (std::ifstream(out_path).good()) {
            std::cerr << "simbench: " << out_path
                      << " already exists; refusing to overwrite it "
                         "(choose the output with --bench-out=<path>)\n";
            return 2;
        }
    }

    BenchReport report;
    report.pr = pr;
    report.scale = params.scale;
    report.seed = params.seed;
    report.repeat = repeat;

    for (const SuitePoint &pt : buildSuite(quick)) {
        const std::string bench_name = benchmarkName(pt.bench);
        BenchMeasurement m;
        m.point = bench_name + "/" + pt.config;
        m.benchmark = bench_name;
        m.config = pt.config;
        m.wallSeconds = -1.0;
        std::uint64_t core_ticks = 0;

        for (int r = 0; r < repeat; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            const RunStats s = runConfig(pt.bench, pt.cfg, params);
            const double dt =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (r == 0) {
                m.cycles = s.cycles;
                m.eventsFired = s.eventsFired;
                m.instructions = s.instructions;
                core_ticks = s.coreTicks;
            } else if (s.cycles != m.cycles ||
                       s.eventsFired != m.eventsFired) {
                // Non-deterministic replay: the numbers are garbage,
                // refuse to archive them.
                std::cerr << "simbench: self-check FAILED on "
                          << m.point << ": repeat " << r
                          << " simulated " << s.cycles << " cycles/"
                          << s.eventsFired << " events vs "
                          << m.cycles << "/" << m.eventsFired
                          << " on the first run\n";
                return 1;
            }
            if (m.wallSeconds < 0.0 || dt < m.wallSeconds)
                m.wallSeconds = dt;
        }
        std::cout << m.point << ": cycles=" << m.cycles
                  << " events=" << m.eventsFired
                  << " core_ticks=" << core_ticks
                  << " best_wall=" << m.wallSeconds
                  << "s cyc/s=" << static_cast<std::uint64_t>(
                                        m.cyclesPerSec())
                  << " ev/s=" << static_cast<std::uint64_t>(
                                      m.eventsPerSec())
                  << "\n";
        report.points.push_back(std::move(m));
    }

    std::string err;
    if (!report.writeFile(out_path, &err)) {
        std::cerr << "simbench: --bench-out: " << err << "\n";
        return 2;
    }

    // Re-read what we just wrote and validate it against the schema:
    // the artifact is only archived when it would also pass CI.
    std::ifstream is(out_path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    const BenchValidation v = validateBenchJson(buf.str());
    if (!v.ok()) {
        std::cerr << "simbench: emitted report fails validation:\n";
        for (const std::string &e : v.errors)
            std::cerr << "  " << e << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << " ("
              << report.points.size() << " points, schema v"
              << kBenchSchemaVersion << ")\n";

    if (!compare_path.empty()) {
        const double worst = comparePoints(report, compare_path);
        if (worst < 0.0)
            return 2;
        if (worst < 1.0 - regress_tol) {
            std::cerr << "simbench: throughput regression: worst "
                         "comparable point at "
                      << worst << "x of " << compare_path
                      << " (tolerance " << (1.0 - regress_tol)
                      << "x)\n";
            return 1;
        }
    }
    return 0;
}
