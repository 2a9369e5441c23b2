/**
 * @file
 * The benchmark's workloads: named lists of (benchmark, MMU design)
 * points run back to back through the simulator's public run API.
 *
 * Every point is generated from the seed passed on the command line;
 * the simulator receives only the resulting WorkloadParams.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/multi_tenant.hh"
#include "core/system_config.hh"
#include "workloads/workload.hh"

namespace gpummu {
class MemTraceWriter;
class SpanTracker;
} // namespace gpummu

namespace perfbench {

/** One single-process simulation: a benchmark under one MMU design. */
struct Point
{
    std::string name; ///< "<bench>/<config>", unique in its workload
    gpummu::BenchmarkId bench = gpummu::BenchmarkId::Bfs;
    gpummu::SystemConfig cfg;
};

/** A named workload: single-process points, or one multi-tenant run. */
struct WorkloadDef
{
    std::string name;
    double scale = 0.0;
    /** Empty for the multi-tenant workload. */
    std::vector<Point> points;
    bool multiTenant = false;

    /** Point names in run order (the multi-tenant run is one point). */
    std::vector<std::string> pointNames() const;
};

/** The workload called @p name; false when there is none. */
bool findWorkload(const std::string &name, WorkloadDef &out);

/** The multi-tenant configuration of @p w at @p seed. */
gpummu::MultiTenantConfig multiTenantConfig(const WorkloadDef &w,
                                            std::uint64_t seed);

/** Workload knobs of @p w at @p seed. */
gpummu::WorkloadParams paramsFor(const WorkloadDef &w,
                                 std::uint64_t seed);

/** Deterministic outputs of one simulated point. */
struct PointResult
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    std::uint64_t fastForwarded = 0;
    unsigned cores = 0;
    /** FNV-1a 64 of the run's JSON stat dump, as 16 hex digits. */
    std::string digest;
    /** The stat dump itself. */
    std::string statsJson;
    /** Runs with spans armed: tracker conservation. */
    std::uint64_t spansOpened = 0;
    std::uint64_t spansClosed = 0;
    /** Summed span queueing and end-to-end cycles (spans armed). */
    std::uint64_t spanQueueing = 0;
    std::uint64_t spanLatency = 0;
    /** Multi-tenant runs with observers armed. */
    std::uint64_t traceEvents = 0;
    std::uint64_t telemetryIntervals = 0;
};

/** Observation-only hooks a run may arm (all optional). */
struct Arming
{
    /** Single-process points: capture the access stream here. */
    gpummu::MemTraceWriter *memtrace = nullptr;
    /** Single-process points: translation-lifecycle spans. */
    gpummu::SpanTracker *spans = nullptr;
    /** Multi-tenant workload: arm TraceSink, Telemetry and
     *  SpanTracker (its defining configuration; false only to measure
     *  the observers' overhead). */
    bool observers = true;
};

/** Simulate point @p index of @p w at @p seed. */
PointResult runPoint(const WorkloadDef &w, std::size_t index,
                     std::uint64_t seed, const Arming &arm = {});

/**
 * Host seconds of set-up for point @p index of @p w: makeWorkload plus
 * Workload::build into a fresh address space (per tenant, demand-paged,
 * for the multi-tenant workload). Nothing is simulated.
 */
double timeSetup(const WorkloadDef &w, std::size_t index,
                 std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
