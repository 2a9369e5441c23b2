#include "points.hh"

#include <chrono>
#include <cstdio>
#include <memory>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"
#include "vm/process.hh"

namespace perfbench {

using namespace gpummu;

namespace {

Point
point(BenchmarkId bench, const std::string &config, SystemConfig cfg)
{
    return Point{benchmarkName(bench) + "/" + config, bench,
                 std::move(cfg)};
}

std::vector<WorkloadDef>
allWorkloads()
{
    std::vector<WorkloadDef> all;

    // Regular: L1-TLB miss rates 8-23%, so the host time goes to core
    // tick, coalescer and L1/memory rather than translation.
    WorkloadDef regular;
    regular.name = "regular";
    regular.scale = 0.5;
    regular.points = {
        point(BenchmarkId::Pathfinder, "augmented_tlb",
              presets::augmentedTlb()),
        point(BenchmarkId::Streamcluster, "augmented_tlb",
              presets::augmentedTlb()),
        point(BenchmarkId::Kmeans, "augmented_tlb",
              presets::augmentedTlb()),
    };
    all.push_back(std::move(regular));

    // Irregular: miss rates 44-96%; together the three points reach
    // every translation structure (walker queueing, shared-L2 MSHR
    // merges, IOMMU walks).
    WorkloadDef irregular;
    irregular.name = "irregular";
    irregular.scale = 0.35;
    irregular.points = {
        point(BenchmarkId::Hashprobe, "augmented_tlb",
              presets::augmentedTlb()),
        point(BenchmarkId::Bfs, "shared_l2_tlb",
              presets::withSharedL2Tlb(presets::augmentedTlb())),
        point(BenchmarkId::Bfs, "iommu", presets::iommu()),
    };
    all.push_back(std::move(irregular));

    // Multi-tenant with every observer armed: faults write page
    // tables and shootdowns invalidate what lookups read.
    WorkloadDef tenants;
    tenants.name = "tenants-observed";
    tenants.scale = 0.5;
    tenants.multiTenant = true;
    all.push_back(std::move(tenants));
    return all;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** FNV-1a 64 of @p s as 16 lower-case hex digits. */
std::string
digestOf(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

std::vector<std::string>
WorkloadDef::pointNames() const
{
    if (multiTenant)
        return {"bfs+pathfinder/iommu_mt"};
    std::vector<std::string> names;
    for (const Point &p : points)
        names.push_back(p.name);
    return names;
}

bool
findWorkload(const std::string &name, WorkloadDef &out)
{
    for (WorkloadDef &w : allWorkloads()) {
        if (w.name == name) {
            out = std::move(w);
            return true;
        }
    }
    return false;
}

WorkloadParams
paramsFor(const WorkloadDef &w, std::uint64_t seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.scale = w.scale;
    return p;
}

MultiTenantConfig
multiTenantConfig(const WorkloadDef &w, std::uint64_t seed)
{
    MultiTenantConfig cfg = defaultMultiTenant(w.scale);
    cfg.params = paramsFor(w, seed);
    return cfg;
}

PointResult
runPoint(const WorkloadDef &w, std::size_t index, std::uint64_t seed,
         const Arming &arm)
{
    PointResult r;
    if (w.multiTenant) {
        const MultiTenantConfig cfg = multiTenantConfig(w, seed);
        std::unique_ptr<TraceSink> trace;
        std::unique_ptr<Telemetry> telemetry;
        std::unique_ptr<SpanTracker> spans;
        if (arm.observers) {
            trace = std::make_unique<TraceSink>();
            telemetry = std::make_unique<Telemetry>();
            spans = std::make_unique<SpanTracker>();
        }
        const MultiTenantResult out = runMultiTenant(
            cfg, trace.get(), telemetry.get(), spans.get());
        r.cycles = out.totalCycles;
        r.cores = cfg.system.numCores;
        for (const TenantResult &t : out.tenants)
            r.instructions += t.instructions;
        r.events = out.eventsFired;
        r.statsJson = out.statsJson;
        if (spans) {
            r.spansOpened = spans->spansOpened();
            r.spansClosed = spans->spansClosed();
            r.spanQueueing = spans->queueing().sum();
            r.spanLatency = spans->endToEnd().sum();
        }
        if (trace) {
            for (std::size_t c = 0; c < kNumTraceCats; ++c)
                r.traceEvents += trace->recorded(static_cast<TraceCat>(c));
        }
        if (telemetry)
            r.telemetryIntervals = telemetry->sampler().intervals().size();
    } else {
        const Point &p = w.points.at(index);
        const RunOutput out =
            runConfigFull(p.bench, p.cfg, paramsFor(w, seed), nullptr,
                          nullptr, arm.memtrace, arm.spans);
        r.cycles = out.stats.cycles;
        r.cores = p.cfg.numCores;
        r.instructions = out.stats.instructions;
        r.events = out.stats.eventsFired;
        r.fastForwarded = out.stats.cyclesFastForwarded;
        r.statsJson = out.statsJson;
        if (arm.spans != nullptr) {
            r.spansOpened = arm.spans->spansOpened();
            r.spansClosed = arm.spans->spansClosed();
            r.spanQueueing = arm.spans->queueing().sum();
            r.spanLatency = arm.spans->endToEnd().sum();
        }
    }
    r.digest = digestOf(r.statsJson);
    return r;
}

double
timeSetup(const WorkloadDef &w, std::size_t index, std::uint64_t seed)
{
    const WorkloadParams params = paramsFor(w, seed);
    if (w.multiTenant) {
        const MultiTenantConfig cfg = multiTenantConfig(w, seed);
        const auto t0 = std::chrono::steady_clock::now();
        PhysicalMemory phys(cfg.system.physFrames);
        ProcessManager pm(phys, cfg.os);
        std::vector<std::unique_ptr<Workload>> built;
        for (const TenantSpec &spec : cfg.tenants) {
            Process &proc = pm.create(spec.name, cfg.system.largePages,
                                      cfg.lazyBacking);
            built.push_back(makeWorkload(spec.bench, params));
            built.back()->build(proc.as);
        }
        return secondsSince(t0);
    }
    const Point &p = w.points.at(index);
    const auto t0 = std::chrono::steady_clock::now();
    PhysicalMemory phys(p.cfg.physFrames);
    AddressSpace as(phys, p.cfg.largePages);
    auto workload = makeWorkload(p.bench, params);
    workload->build(as);
    return secondsSince(t0);
}

} // namespace perfbench
