/**
 * @file
 * Translation-lifecycle span tracing regression tests.
 *
 * Span tracking is observation-only; these tests pin the contract
 * from both sides. Arming it never changes simulated results:
 * bit-identical stat dumps on every registry workload and on the
 * IOMMU, TBC and multi-tenant paths, byte-stable exports at any
 * sweep job count. And what it records is complete: spans conserve
 * against the simulation's own counters (opens against L1 TLB
 * accesses, walk references against the walkers' refs_issued, merge
 * stages against the MSHR/merge counters), every span's queueing and
 * service cycles telescope to its end-to-end latency exactly, and
 * the top-K slowest-span selection is deterministic and ordered.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "core/experiment.hh"
#include "core/multi_tenant.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "stats_json.hh"
#include "telemetry/report.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"
#include "trace/trace.hh"

using namespace gpummu;

namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.03;
    p.seed = 42;
    return p;
}

SystemConfig
paperDefault()
{
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 4;
    return cfg;
}

/** One simulation with the given observers armed (any may be null). */
using ArmedRun = std::function<void(TraceSink *, Telemetry *,
                                    MemTraceWriter *, SpanTracker *)>;

/** What to arm on one observed run. */
struct Arm
{
    bool trace = false;
    bool telemetry = false;
    bool spans = false;
    bool capture = false;
};

/** Every export of one observed run, as bytes ("" when unarmed). */
struct Exports
{
    std::string trace;
    std::string spansCsv, spansJson;
    std::string samplesCsv, samplesJson, report;
    std::string memtrace;
};

Exports
observe(const ArmedRun &run, const Arm &arm)
{
    TraceSink sink;
    TelemetryConfig tcfg;
    tcfg.sampleInterval = 700;
    Telemetry telemetry(tcfg);
    SpanTracker spans;
    const std::string capture_path =
        ::testing::TempDir() + "one_run_serves_all.memtrace";
    auto writer = arm.capture
                      ? std::make_unique<MemTraceWriter>(capture_path)
                      : nullptr;
    run(arm.trace ? &sink : nullptr,
        arm.telemetry ? &telemetry : nullptr, writer.get(),
        arm.spans ? &spans : nullptr);

    Exports e;
    std::ostringstream os;
    auto take = [&os](std::string &into) {
        into = os.str();
        os.str("");
    };
    if (arm.trace) {
        sink.writeChromeTrace(os);
        take(e.trace);
    }
    if (arm.spans) {
        spans.writeCsv(os);
        take(e.spansCsv);
        spans.writeJson(os);
        take(e.spansJson);
    }
    if (arm.telemetry) {
        telemetry.writeCsv(os);
        take(e.samplesCsv);
        telemetry.writeJson(os);
        take(e.samplesJson);
        writeHtmlReport(os, telemetry, nullptr);
        take(e.report);
    }
    if (arm.capture) {
        writer.reset();
        std::ifstream in(capture_path, std::ios::binary);
        os << in.rdbuf();
        take(e.memtrace);
        std::remove(capture_path.c_str());
    }
    return e;
}

/**
 * Arm trace, telemetry, spans and (with @p capture) memtrace on one
 * run of @p run and check each export against a run armed with that
 * observer alone. The trace is checked against a trace+spans run: a
 * shared run draws the span flow arrows into it.
 */
void
expectOneRunServesEveryExport(const ArmedRun &run, bool capture,
                              const std::string &what)
{
    const Exports all = observe(run, {true, true, true, capture});
    EXPECT_FALSE(all.trace.empty()) << what;
    EXPECT_FALSE(all.spansCsv.empty()) << what;
    EXPECT_FALSE(all.samplesCsv.empty()) << what;

    const Exports traced = observe(run, {true, false, true, false});
    EXPECT_EQ(all.trace, traced.trace) << what;
    const Exports spanned = observe(run, {false, false, true, false});
    EXPECT_EQ(all.spansCsv, spanned.spansCsv) << what;
    EXPECT_EQ(all.spansJson, spanned.spansJson) << what;
    const Exports sampled = observe(run, {false, true, false, false});
    EXPECT_EQ(all.samplesCsv, sampled.samplesCsv) << what;
    EXPECT_EQ(all.samplesJson, sampled.samplesJson) << what;
    EXPECT_EQ(all.report, sampled.report) << what;
    if (capture) {
        EXPECT_FALSE(all.memtrace.empty()) << what;
        const Exports captured = observe(run, {false, false, false, true});
        EXPECT_EQ(all.memtrace, captured.memtrace) << what;
    }
}

} // namespace

TEST(Spans, ArmedRunIsBitIdenticalOnEveryWorkload)
{
    // The acceptance bar for the whole subsystem: a span-armed run
    // must be indistinguishable from an unarmed one in every
    // simulated stat, on every registry workload...
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        const RunOutput plain = runConfigFull(id, cfg, tinyParams());
        SpanTracker spans;
        const RunOutput armed =
            runConfigFull(id, cfg, tinyParams(), nullptr, nullptr,
                          nullptr, &spans);
        EXPECT_TRUE(plain.stats == armed.stats) << benchmarkName(id);
        EXPECT_EQ(plain.statsJson, armed.statsJson)
            << benchmarkName(id);
        // ...while actually recording something, and retiring every
        // span it opened (the run drains before finishing).
        EXPECT_FALSE(spans.empty()) << benchmarkName(id);
        EXPECT_EQ(spans.spansOpen(), 0u) << benchmarkName(id);
    }
}

TEST(Spans, ArmedIommuTbcAndMultiTenantAreBitIdentical)
{
    // The three non-default arming paths: the IOMMU's shared
    // translation machinery, the TBC core kind, and the multi-tenant
    // runner's per-slice transient cores.
    auto io = presets::iommu();
    io.numCores = 4;
    const RunOutput io_plain =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams());
    SpanTracker io_spans;
    const RunOutput io_armed =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams(), nullptr,
                      nullptr, nullptr, &io_spans);
    EXPECT_TRUE(io_plain.stats == io_armed.stats);
    EXPECT_EQ(io_plain.statsJson, io_armed.statsJson);
    EXPECT_FALSE(io_spans.empty());
    EXPECT_GT(io_spans.stageCount(SpanStage::IommuLookup), 0u);

    auto tbc = presets::tbc(paperDefault());
    const RunOutput tbc_plain =
        runConfigFull(BenchmarkId::Bfs, tbc, tinyParams());
    SpanTracker tbc_spans;
    const RunOutput tbc_armed =
        runConfigFull(BenchmarkId::Bfs, tbc, tinyParams(), nullptr,
                      nullptr, nullptr, &tbc_spans);
    EXPECT_TRUE(tbc_plain.stats == tbc_armed.stats);
    EXPECT_EQ(tbc_plain.statsJson, tbc_armed.statsJson);
    EXPECT_FALSE(tbc_spans.empty());

    MultiTenantConfig mt = defaultMultiTenant(/*scale=*/0.03);
    mt.params.seed = 42;
    const MultiTenantResult mt_plain = runMultiTenant(mt);
    SpanTracker mt_spans;
    const MultiTenantResult mt_armed =
        runMultiTenant(mt, nullptr, nullptr, &mt_spans);
    EXPECT_EQ(mt_plain.statsJson, mt_armed.statsJson);
    EXPECT_EQ(mt_plain.totalCycles, mt_armed.totalCycles);
    EXPECT_FALSE(mt_spans.empty());
    // Span keys carry the tenants' ASIDs, so the per-ASID breakdown
    // sees both processes.
    EXPECT_EQ(mt_spans.perAsid().size(), mt.tenants.size());
}

TEST(Spans, OneArmedRunEqualsSingleObserverRuns)
{
    // Front ends serve every requested export from one armed run, so
    // arming observers together must not change what any of them
    // records: per-core MMUs, the shared L2 TLB, the IOMMU and the
    // multi-tenant runner.
    auto io = presets::iommu();
    io.numCores = 4;
    for (const SystemConfig &cfg :
         {paperDefault(), presets::withSharedL2Tlb(paperDefault()), io}) {
        expectOneRunServesEveryExport(
            [&cfg](TraceSink *trace, Telemetry *telemetry,
                   MemTraceWriter *memtrace, SpanTracker *spans) {
                runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(), trace,
                              telemetry, memtrace, spans);
            },
            /*capture=*/true, cfg.name);
    }

    MultiTenantConfig mt = defaultMultiTenant(/*scale=*/0.05);
    mt.params.seed = 42;
    expectOneRunServesEveryExport(
        [&mt](TraceSink *trace, Telemetry *telemetry, MemTraceWriter *,
              SpanTracker *spans) {
            runMultiTenant(mt, trace, telemetry, spans);
        },
        /*capture=*/false, "multi-tenant");
}

TEST(Spans, ConservationAgainstSimulationCounters)
{
    // Every translation request must open exactly one span (opens ==
    // the cores' L1 TLB accesses), every page-walk memory reference
    // must be attributed (walk refs == the walkers' refs_issued),
    // and every merge the MMUs count must land in a merge stage.
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        SpanTracker spans;
        const RunOutput out =
            runConfigFull(id, cfg, tinyParams(), nullptr, nullptr,
                          nullptr, &spans);
        EXPECT_EQ(spans.spansOpened(),
                  sumCountersEndingWith(out.statsJson,
                                        ".mmu.tlb.accesses"))
            << benchmarkName(id);
        EXPECT_EQ(spans.walkRefsTotal(), out.stats.walkRefsIssued)
            << benchmarkName(id);
        EXPECT_EQ(spans.stageCount(SpanStage::MmuMerge),
                  sumCountersEndingWith(out.statsJson,
                                        ".mmu.merged_walks"))
            << benchmarkName(id);
        // Every span either hit in the L1 or went down the miss
        // path; the two partitions cover all opens.
        EXPECT_EQ(spans.stageCount(SpanStage::L1Hit) +
                      spans.stageCount(SpanStage::L1Miss),
                  spans.spansOpened())
            << benchmarkName(id);
    }
}

TEST(Spans, SharedL2AndIommuMergesConserve)
{
    // The shared-L2-TLB path: spans merged into an L2 translation
    // MSHR reconcile with the L2's own merge counter.
    const auto l2 = presets::withSharedL2Tlb(paperDefault());
    SpanTracker l2_spans;
    const RunOutput l2_out =
        runConfigFull(BenchmarkId::Bfs, l2, tinyParams(), nullptr,
                      nullptr, nullptr, &l2_spans);
    EXPECT_EQ(l2_spans.stageCount(SpanStage::L2Merge),
              sumCountersEndingWith(l2_out.statsJson,
                                    "l2tlb.mshr_merges"));
    EXPECT_GT(l2_spans.stageCount(SpanStage::L2Lookup), 0u);

    // The IOMMU path likewise, against the IOMMU's merge counter and
    // its walkers' reference counter.
    auto io = presets::iommu();
    io.numCores = 4;
    SpanTracker io_spans;
    const RunOutput io_out =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams(), nullptr,
                      nullptr, nullptr, &io_spans);
    EXPECT_EQ(io_spans.stageCount(SpanStage::IommuMerge),
              sumCountersEndingWith(io_out.statsJson,
                                    "iommu.merged_walks"));
    EXPECT_EQ(io_spans.walkRefsTotal(),
              sumCountersEndingWith(io_out.statsJson,
                                    ".ptw.refs_issued"));
}

TEST(Spans, QueueingPlusServiceIsExactlyEndToEnd)
{
    // The arrival-interval accounting telescopes: per-span queueing
    // + service cycles equal the span's end-to-end latency with no
    // double-counted or lost cycles, per retained span and in the
    // aggregate histograms.
    SpanTracker spans;
    runConfigFull(BenchmarkId::Hashprobe, paperDefault(),
                  tinyParams(), nullptr, nullptr, nullptr, &spans);
    ASSERT_FALSE(spans.topSpans().empty());
    for (const SpanTracker::ClosedSpan &sp : spans.topSpans()) {
        EXPECT_EQ(sp.queueing + sp.service, sp.latency());
        ASSERT_FALSE(sp.timeline.empty());
        // Timelines are cycle-monotone and start at the open.
        EXPECT_EQ(sp.timeline.front().cycle, sp.open);
        Cycle prev = sp.open;
        for (const auto &ev : sp.timeline) {
            EXPECT_GE(ev.cycle, prev);
            prev = ev.cycle;
        }
        EXPECT_EQ(sp.timeline.back().cycle, sp.close);
    }
    EXPECT_EQ(spans.queueing().sum() + spans.service().sum(),
              spans.endToEnd().sum());
    EXPECT_EQ(spans.endToEnd().count(), spans.spansClosed());
}

TEST(Spans, ExportsAreByteStableAcrossSweepJobCounts)
{
    // Pipeline parity: nothing about a prior parallel sweep may leak
    // into a later armed run - the span CSV and JSON must match byte
    // for byte whether the grid was swept on 1 worker or 4.
    const auto cfg = paperDefault();
    auto pipeline = [&](unsigned jobs) {
        Experiment exp(tinyParams());
        std::vector<SweepPoint> grid = {
            SweepPoint{BenchmarkId::Bfs, cfg},
            SweepPoint{BenchmarkId::Kmeans, cfg},
        };
        SweepRunner(exp, jobs).run(grid);
        SpanTracker spans;
        runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(), nullptr,
                      nullptr, nullptr, &spans);
        std::ostringstream csv, json, summary;
        spans.writeCsv(csv);
        spans.writeJson(json);
        spans.writeSummary(summary);
        return std::make_tuple(csv.str(), json.str(),
                               summary.str());
    };
    const auto [csv1, json1, sum1] = pipeline(1);
    const auto [csv4, json4, sum4] = pipeline(4);
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(json1, json4);
    EXPECT_EQ(sum1, sum4);

    // Sanity on the export shape: the documented section headers and
    // stage table columns are pinned.
    EXPECT_EQ(csv1.rfind("# stages\n"
                         "stage,class,count,cycles,mean,p50,p95,p99,"
                         "min,max\n",
                         0),
              0u);
    EXPECT_NE(csv1.find("\n# walk_refs\n"), std::string::npos);
    EXPECT_NE(csv1.find("\n# top_spans\n"), std::string::npos);
    EXPECT_EQ(json1.rfind("{\"meta\":{\"spans_opened\":", 0), 0u);
}

TEST(Spans, TopKSelectionIsDeterministicAndOrdered)
{
    // The retained slowest spans are totally ordered (latency
    // descending, then open cycle, then id - no unordered-map
    // iteration order leaks in) and identical across runs.
    auto run = [](std::size_t k) {
        auto spans = std::make_unique<SpanTracker>(k);
        runConfigFull(BenchmarkId::Bfs, paperDefault(), tinyParams(),
                      nullptr, nullptr, nullptr, spans.get());
        return spans;
    };
    const auto a = run(8);
    const auto b = run(8);
    ASSERT_EQ(a->topSpans().size(), 8u);
    ASSERT_EQ(b->topSpans().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(a->topSpans()[i].id, b->topSpans()[i].id);
        EXPECT_EQ(a->topSpans()[i].latency(),
                  b->topSpans()[i].latency());
    }
    for (std::size_t i = 1; i < 8; ++i) {
        const auto &hi = a->topSpans()[i - 1];
        const auto &lo = a->topSpans()[i];
        const bool ordered =
            hi.latency() > lo.latency() ||
            (hi.latency() == lo.latency() &&
             (hi.open < lo.open ||
              (hi.open == lo.open && hi.id < lo.id)));
        EXPECT_TRUE(ordered) << "rank " << i;
    }
    // A larger retention window keeps a superset: the slowest 8 of
    // top-16 are the top-8.
    const auto wide = run(16);
    ASSERT_GE(wide->topSpans().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(wide->topSpans()[i].id, a->topSpans()[i].id);
}
