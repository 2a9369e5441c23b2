/**
 * @file
 * MMU feature sweep: walks the paper's design-point ladder for one
 * benchmark, from the no-TLB baseline through every augmentation
 * step (ports, hit-under-miss, cache overlap, PTW scheduling,
 * multiple walkers, ideal). Useful for seeing where each feature's
 * win comes from.
 *
 * The ladder runs through SweepRunner, so the points simulate in
 * parallel; results are deterministic and identical at any job
 * count.
 *
 * Usage: mmu_sweep [benchmark] [scale] [jobs]
 *                  [--trace=<file>] [--trace-filter=<prefix>]
 *                  [--sample-interval=<cycles>] [--sample-out=<file>]
 *                  [--report=<file>] [--capture-trace=<file>]
 *                  [--spans=<file>]
 *        (jobs defaults to GPUMMU_JOBS, else all hardware threads)
 *
 * Any export flag makes one extra, observation-only run of the
 * augmented design point after the sweep, and that one run serves
 * every requested export:
 *
 *  - --trace=<file> writes Chrome trace-event JSON (open in Perfetto
 *    or chrome://tracing); --trace-filter restricts recording to
 *    categories whose name starts with the prefix (tlb, ptw,
 *    coalescer, l1, l2, dram, core).
 *  - --sample-interval=<n> arms telemetry: --sample-out writes the
 *    per-interval counter series (.csv or .json by extension) and
 *    --report writes a self-contained HTML run report with interval
 *    charts, the stall breakdown and the hot-page / hot-PTE-line
 *    tables.
 *  - --capture-trace=<file> writes a replayable memtrace (drive it
 *    back through the MMU stack with bench/trace_replay).
 *  - --spans=<file> gives every translation request a cycle-stamped
 *    timeline through TLB lookup, L2/MSHR, walker queueing and
 *    service, and fill; the per-stage latency decomposition is
 *    exported as .csv or .json (by extension) and a summary is
 *    printed. With --trace, the Chrome trace carries span flow
 *    arrows; with --report, the HTML report gains a
 *    translation-latency-anatomy section.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "sim/parse_util.hh"
#include "trace/trace.hh"

using namespace gpummu;

int
main(int argc, char **argv)
{
    // Flags can appear anywhere; positionals keep their order.
    benchutil::ObserveOptions obs;
    std::vector<std::string> pos;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace=", 0) == 0) {
            obs.traceFile = arg.substr(8);
        } else if (arg.rfind("--trace-filter=", 0) == 0) {
            obs.traceFilter = arg.substr(15);
            if (!traceFilterMatchesAny(obs.traceFilter)) {
                std::cerr << "--trace-filter=" << obs.traceFilter
                          << " matches no category; valid: "
                          << traceCatNames() << "\n";
                return 2;
            }
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            // Strict full-token parse: trailing garbage is an
            // error, not a truncated number.
            if (!parseNum(arg.substr(18), obs.sampleInterval) ||
                obs.sampleInterval == 0) {
                std::cerr << "--sample-interval wants a positive "
                             "cycle count\n";
                return 2;
            }
        } else if (arg.rfind("--capture-trace=", 0) == 0) {
            obs.captureTrace = arg.substr(16);
            if (obs.captureTrace.empty()) {
                std::cerr
                    << "--capture-trace wants an output path\n";
                return 2;
            }
        } else if (arg.rfind("--sample-out=", 0) == 0) {
            obs.sampleOut = arg.substr(13);
            if (!benchutil::endsWith(obs.sampleOut, ".csv") &&
                !benchutil::endsWith(obs.sampleOut, ".json")) {
                std::cerr
                    << "--sample-out wants a .csv or .json path\n";
                return 2;
            }
        } else if (arg.rfind("--report=", 0) == 0) {
            obs.reportFile = arg.substr(9);
            if (obs.reportFile.empty()) {
                std::cerr << "--report wants an output path\n";
                return 2;
            }
        } else if (arg.rfind("--spans=", 0) == 0) {
            obs.spansFile = arg.substr(8);
            if (!benchutil::endsWith(obs.spansFile, ".csv") &&
                !benchutil::endsWith(obs.spansFile, ".json")) {
                std::cerr << "--spans wants a .csv or .json path\n";
                return 2;
            }
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << arg
                      << "\nusage: mmu_sweep [benchmark] [scale] "
                         "[jobs] [--trace=<file>] "
                         "[--trace-filter=<prefix>] "
                         "[--sample-interval=<cycles>] "
                         "[--sample-out=<file>] [--report=<file>] "
                         "[--capture-trace=<file>] [--spans=<file>]\n";
            return 2;
        } else {
            pos.push_back(arg);
        }
    }
    if (obs.sampleInterval == 0 &&
        (!obs.sampleOut.empty() || !obs.reportFile.empty())) {
        std::cerr << "--sample-out/--report need "
                     "--sample-interval=<cycles>\n";
        return 2;
    }
    if (obs.sampleInterval != 0 && obs.sampleOut.empty() &&
        obs.reportFile.empty()) {
        std::cerr << "--sample-interval needs --sample-out=<file> "
                     "and/or --report=<file>\n";
        return 2;
    }

    std::string name = pos.size() > 0 ? pos[0] : "bfs";
    WorkloadParams params;
    params.scale = 0.25;
    params.seed = 42;
    if (pos.size() > 1 &&
        (!parseDouble(pos[1], params.scale) || params.scale <= 0.0)) {
        std::cerr << "bad scale '" << pos[1]
                  << "': wants a positive number\n";
        return 2;
    }
    unsigned jobs = 0;
    if (pos.size() > 2 && !parseNum(pos[2], jobs)) {
        std::cerr << "bad jobs '" << pos[2]
                  << "': wants a non-negative int\n";
        return 2;
    }

    BenchmarkId bench = BenchmarkId::Bfs;
    for (BenchmarkId id : allBenchmarks()) {
        if (benchmarkName(id) == name)
            bench = id;
    }

    Experiment exp(params);
    const SystemConfig base = presets::noTlb();

    std::vector<SystemConfig> ladder = {
        presets::naiveTlb(3),
        presets::naiveTlb(4),
        presets::tlbHitUnderMiss(),
        presets::tlbCacheOverlap(),
        presets::augmentedTlb(),
        presets::naiveTlbMultiPtw(8),
        presets::idealTlb(),
    };

    // Fan the whole ladder (baseline first) out over worker threads.
    std::vector<SweepPoint> grid;
    grid.push_back(SweepPoint{bench, base});
    for (const auto &cfg : ladder)
        grid.push_back(SweepPoint{bench, cfg});
    SweepRunner runner(exp, jobs);
    const auto results = runner.run(grid);

    std::cout << "ran " << grid.size() << " design points on "
              << runner.jobs() << " worker threads\n\n";

    ReportTable table({"config", "cycles", "tlb-miss%", "walk-lat",
                       "refs-elim", "speedup"});
    const RunStats b = results.front().stats;
    table.addRow({base.name, std::to_string(b.cycles), "-", "-", "-",
                  "1.000"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const RunStats s = results[i + 1].stats;
        table.addRow(
            {ladder[i].name, std::to_string(s.cycles),
             ReportTable::pct(s.tlbMissRate()),
             ReportTable::num(s.avgTlbMissLatency, 0),
             std::to_string(s.walkRefsEliminated),
             ReportTable::num(static_cast<double>(b.cycles) /
                                  static_cast<double>(s.cycles),
                              3)});
    }
    table.print(std::cout);

    // Observers belong to exactly one run, so the augmented design
    // point is re-simulated once after the sweep to serve every
    // requested export (timing is bit-identical either way).
    benchutil::observeRun(obs, bench, presets::augmentedTlb(), params,
                          std::cout);
    return 0;
}
