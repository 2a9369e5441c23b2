/**
 * @file
 * Self-tests for the simulator-throughput benchmark harness
 * (bench/simbench + sim/perf_report): the measurement loop must be
 * replay-deterministic, the emitted JSON must satisfy its own schema,
 * schema violations must be caught loudly, and an unwritable output
 * path must fail with a clear error instead of crashing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "sim/perf_report.hh"

using namespace gpummu;

namespace {

/** A small but fully valid report to mutate in schema tests. */
BenchReport
sampleReport()
{
    BenchReport r;
    r.pr = 6;
    r.scale = 0.25;
    r.seed = 42;
    r.repeat = 3;
    BenchMeasurement m;
    m.point = "memcached/augmented_tlb";
    m.benchmark = "memcached";
    m.config = "augmented_tlb";
    m.cycles = 89079;
    m.eventsFired = 130856;
    m.instructions = 86933;
    m.wallSeconds = 0.5;
    r.points.push_back(m);
    return r;
}

/** True when some validation error message contains @p needle. */
bool
hasError(const BenchValidation &v, const std::string &needle)
{
    for (const std::string &e : v.errors) {
        if (e.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// The measurement the harness archives: back-to-back runs of the same
// point must report identical deterministic quantities, or every
// cycles/sec number would be comparing different simulations.
// ---------------------------------------------------------------------

TEST(Simbench, BackToBackRunsReportIdenticalCyclesAndEvents)
{
    WorkloadParams params;
    params.scale = 0.1;
    params.seed = 42;
    const SystemConfig cfg = presets::augmentedTlb();

    const RunStats first =
        runConfig(BenchmarkId::Memcached, cfg, params);
    const RunStats second =
        runConfig(BenchmarkId::Memcached, cfg, params);

    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.eventsFired, second.eventsFired);
    EXPECT_EQ(first.instructions, second.instructions);
    EXPECT_TRUE(first == second);
    EXPECT_GT(first.cycles, 0u);
    EXPECT_GT(first.eventsFired, 0u);
    EXPECT_EQ(first.coreTicks, second.coreTicks);
}

TEST(Simbench, SleepingCoresSkipMostTicks)
{
    // Pathfinder's 30 cores are idle in most core-cycles; a core that
    // cannot issue sleeps instead of being ticked, so the loop runs
    // far fewer ticks than cores x cycles.
    WorkloadParams params;
    params.scale = 0.03;
    params.seed = 42;
    const SystemConfig cfg = presets::augmentedTlb();
    const RunStats s = runConfig(BenchmarkId::Pathfinder, cfg, params);
    EXPECT_GT(s.coreTicks, 0u);
    EXPECT_LT(s.coreTicks, cfg.numCores * s.cycles / 10);
}

// ---------------------------------------------------------------------
// Round trip: what the writer emits must pass the validator.
// ---------------------------------------------------------------------

TEST(Simbench, EmittedReportValidates)
{
    const BenchReport r = sampleReport();
    const BenchValidation v = validateBenchJson(r.toJson());
    EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
}

TEST(Simbench, EmittedJsonParsesBackToSameValues)
{
    const BenchReport r = sampleReport();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(r.toJson(), doc, &err)) << err;
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);

    const JsonValue *ver = doc.find("schema_version");
    ASSERT_NE(ver, nullptr);
    EXPECT_EQ(ver->number, kBenchSchemaVersion);

    const JsonValue *gen = doc.find("generator");
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(gen->str, "simbench");

    const JsonValue *pts = doc.find("points");
    ASSERT_NE(pts, nullptr);
    ASSERT_EQ(pts->items.size(), 1u);
    const JsonValue &p = pts->items.front();
    EXPECT_EQ(p.find("point")->str, "memcached/augmented_tlb");
    EXPECT_EQ(p.find("cycles")->number, 89079.0);
    EXPECT_EQ(p.find("events_fired")->number, 130856.0);
    // cycles_per_sec = cycles / wallSeconds = 89079 / 0.5.
    EXPECT_DOUBLE_EQ(p.find("cycles_per_sec")->number, 178158.0);
}

// ---------------------------------------------------------------------
// Schema violations the validator must reject.
// ---------------------------------------------------------------------

TEST(Simbench, SchemaVersionZeroIsRejected)
{
    BenchReport r = sampleReport();
    r.schemaVersion = 0;
    const BenchValidation v = validateBenchJson(r.toJson());
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "schema_version"));
}

TEST(Simbench, FutureSchemaVersionIsRejected)
{
    BenchReport r = sampleReport();
    r.schemaVersion = kBenchSchemaVersion + 1;
    const BenchValidation v = validateBenchJson(r.toJson());
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "schema_version"));
}

TEST(Simbench, ZeroWallClockIsRejected)
{
    // wallSeconds == 0 makes cyclesPerSec()/eventsPerSec() return 0
    // (the guarded division) — the validator must refuse to archive
    // the meaningless throughput, not divide by zero.
    BenchReport r = sampleReport();
    r.points.front().wallSeconds = 0.0;
    EXPECT_EQ(r.points.front().cyclesPerSec(), 0.0);
    const BenchValidation v = validateBenchJson(r.toJson());
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "strictly positive"));
}

TEST(Simbench, NaNWallClockIsRejected)
{
    // jsonNum() serializes non-finite doubles as JSON null, which the
    // validator then flags as a wrong-typed wall_seconds.
    BenchReport r = sampleReport();
    r.points.front().wallSeconds =
        std::numeric_limits<double>::quiet_NaN();
    const BenchValidation v = validateBenchJson(r.toJson());
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "wall_seconds"));
}

TEST(Simbench, MissingRequiredKeyIsRejected)
{
    const BenchValidation v = validateBenchJson(
        "{\"schema_version\":1,\"generator\":\"simbench\"}");
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "missing required key"));
}

TEST(Simbench, EmptyPointsArrayIsRejected)
{
    const BenchValidation v = validateBenchJson(
        "{\"schema_version\":1,\"generator\":\"simbench\","
        "\"pr\":6,\"scale\":0.25,\"seed\":42,\"repeat\":3,"
        "\"points\":[]}");
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "points: array is empty"));
}

TEST(Simbench, NonObjectTopLevelIsRejected)
{
    const BenchValidation v = validateBenchJson("[1,2,3]");
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(hasError(v, "not a JSON object"));
}

// ---------------------------------------------------------------------
// Parser negative cases: malformed input fails with a located error,
// never an exception or a bogus document.
// ---------------------------------------------------------------------

TEST(Simbench, ParserRejectsMalformedJson)
{
    JsonValue doc;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":}", doc, &err));
    EXPECT_NE(err.find("json parse error"), std::string::npos);

    EXPECT_FALSE(parseJson("{\"a\":1", doc, &err));
    EXPECT_FALSE(parseJson("[1,2,", doc, &err));
    EXPECT_FALSE(parseJson("\"unterminated", doc, &err));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", doc, &err));
    EXPECT_FALSE(parseJson("", doc, &err));
    EXPECT_FALSE(parseJson("nul", doc, &err));
}

TEST(Simbench, ParserHandlesEscapesAndNesting)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(
        "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[{\"x\":-1.5e3},null,true]}",
        doc, &err))
        << err;
    EXPECT_EQ(doc.find("s")->str, "a\"b\\c\n");
    const JsonValue *arr = doc.find("arr");
    ASSERT_EQ(arr->items.size(), 3u);
    EXPECT_DOUBLE_EQ(arr->items[0].find("x")->number, -1500.0);
    EXPECT_EQ(arr->items[1].kind, JsonValue::Kind::Null);
    EXPECT_TRUE(arr->items[2].boolean);
}

// ---------------------------------------------------------------------
// Output-path failures surface as clear errors, not crashes.
// ---------------------------------------------------------------------

TEST(Simbench, UnwritableOutputPathFailsWithClearError)
{
    const BenchReport r = sampleReport();
    std::string err;
    EXPECT_FALSE(r.writeFile(
        "/nonexistent-dir-for-simbench-test/out.json", &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
    EXPECT_NE(err.find("/nonexistent-dir-for-simbench-test/out.json"),
              std::string::npos);
}
