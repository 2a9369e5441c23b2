#include "core/experiment.hh"

#include <iomanip>
#include <sstream>

#include "core/run_support.hh"
#include "mmu/l2_tlb.hh"
#include "sched/ccws.hh"
#include "sim/logging.hh"
#include "tbc/tbc_core.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"
#include "trace/trace.hh"

namespace gpummu {

std::unique_ptr<WarpScheduler>
makeScheduler(const SystemConfig &cfg)
{
    switch (cfg.sched) {
      case SchedulerKind::LooseRoundRobin:
        return std::make_unique<LooseRoundRobin>(
            cfg.core.numWarpSlots);
      case SchedulerKind::GreedyThenOldest:
        return std::make_unique<GreedyThenOldest>();
      case SchedulerKind::Ccws:
      case SchedulerKind::TaCcws:
        return std::make_unique<Ccws>(cfg.ccws);
      case SchedulerKind::Tcws:
        return std::make_unique<Tcws>(cfg.tcws);
    }
    GPUMMU_PANIC("unknown scheduler kind");
}

Probes
armObservers(const EventQueue &eq, StatRegistry &stats, TraceSink *trace,
             Telemetry *telemetry, SpanTracker *spans)
{
    if (trace != nullptr)
        trace->bindClock(&eq);
    if (spans != nullptr) {
        spans->bindClock(&eq);
        // With a sink armed too, each span's lifecycle additionally
        // rides it as Chrome-trace flow events (arrows).
        spans->setTraceSink(trace);
    }
    if (telemetry != nullptr)
        telemetry->begin(stats);
    if (trace != nullptr)
        trace->regStats(stats, "trace");
    return Probes{trace,
                  telemetry != nullptr ? &telemetry->heat() : nullptr,
                  spans};
}

namespace {

GpuTop::CoreFactory
makeCoreFactory(const SystemConfig &cfg)
{
    if (cfg.coreKind == CoreKind::Tbc) {
        return [cfg](int core_id, const LaunchParams &launch,
                     AddressSpace &as, MemorySystem &mem,
                     EventQueue &eq) -> std::unique_ptr<ShaderCore> {
            auto core = std::make_unique<TbcCore>(
                core_id, cfg.core, cfg.tbc, launch, as, mem, eq);
            return core;
        };
    }
    return [cfg](int core_id, const LaunchParams &launch,
                 AddressSpace &as, MemorySystem &mem,
                 EventQueue &eq) -> std::unique_ptr<ShaderCore> {
        auto core = std::make_unique<SimtCore>(core_id, cfg.core,
                                               launch, as, mem, eq);
        core->setScheduler(makeScheduler(cfg));
        return core;
    };
}

RunOutput
finishRun(GpuTop &gpu, const std::string &bench_name,
          const SystemConfig &cfg, Telemetry *telemetry)
{
    RunOutput out;
    out.stats = gpu.run(cfg.maxCycles, telemetry);
    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(bench_name)
       << "\",\"config\":\"" << jsonEscape(cfg.name)
       << "\",\"summary\":";
    dumpRunStatsJson(os, out.stats);
    os << ",\"stats\":";
    gpu.stats().dumpJson(os);
    os << "}";
    out.statsJson = os.str();
    return out;
}

/** Arm trace capture on a built GpuTop; fatal when unsupported so a
 *  --capture-trace user never gets a silently empty file. */
void
armMemTrace(GpuTop &gpu, MemTraceWriter *memtrace,
            const SystemConfig &cfg)
{
    if (memtrace == nullptr)
        return;
    memtrace->setConfigName(cfg.name);
    if (!gpu.setMemTrace(memtrace)) {
        if (!memtrace->ok()) {
            GPUMMU_FATAL("memory-trace capture failed: ",
                         memtrace->error());
        }
        GPUMMU_FATAL("memory-trace capture is not supported on "
                     "this core topology (config '",
                     cfg.name,
                     "'): TBC compacts warps, so recorded warp ids "
                     "would not replay");
    }
}

} // namespace

RunOutput
runWorkloadFull(Workload &workload, const SystemConfig &cfg_in,
                TraceSink *trace, Telemetry *telemetry,
                MemTraceWriter *memtrace, SpanTracker *spans)
{
    // Fan the top-level checker switch out to every translation unit
    // of the run before any core is built.
    SystemConfig cfg = cfg_in;
    if (cfg.checkInvariants) {
        cfg.core.mmu.checkInvariants = true;
        cfg.iommuCfg.checkInvariants = true;
        cfg.l2tlb.checkInvariants = true;
    }

    // The GPU-wide translation unit, if any: a shared L2 TLB behind
    // the per-core MMU miss paths, or the IOMMU in place of per-core
    // MMUs. Either is created with the first core, once the address
    // space exists, and kept alive for the run.
    auto l2 = std::make_shared<std::unique_ptr<L2Tlb>>();
    auto iommu = std::make_shared<std::unique_ptr<Iommu>>();
    GpuTop::CoreFactory factory = makeCoreFactory(cfg);
    if (cfg.iommu) {
        GPUMMU_ASSERT(!cfg.l2tlb.enabled,
                      "the shared L2 TLB sits behind per-core MMUs; "
                      "IOMMU mode has no miss path to attach it to");
        GPUMMU_ASSERT(!cfg.core.mmu.enabled,
                      "IOMMU mode requires per-core MMUs disabled");
        factory = [cfg, iommu](int core_id, const LaunchParams &launch,
                               AddressSpace &as, MemorySystem &mem,
                               EventQueue &eq)
            -> std::unique_ptr<ShaderCore> {
            if (!*iommu) {
                *iommu = std::make_unique<Iommu>(cfg.iommuCfg, as, mem,
                                                 eq);
            }
            auto core = std::make_unique<SimtCore>(
                core_id, cfg.core, launch, as, mem, eq);
            core->setScheduler(makeScheduler(cfg));
            core->setIommu(iommu->get());
            return core;
        };
    } else if (cfg.l2tlb.enabled) {
        GPUMMU_ASSERT(cfg.core.mmu.enabled,
                      "a shared L2 TLB needs per-core MMUs");
        factory = [cfg, base = std::move(factory), l2](
                      int core_id, const LaunchParams &launch,
                      AddressSpace &as, MemorySystem &mem,
                      EventQueue &eq) -> std::unique_ptr<ShaderCore> {
            if (!*l2) {
                *l2 = std::make_unique<L2Tlb>(
                    cfg.l2tlb, as.pageTable(), eq,
                    as.usesLargePages() ? kPageShift2M : kPageShift4K);
            }
            auto core = base(core_id, launch, as, mem, eq);
            core->mmu().setL2Tlb(l2->get());
            return core;
        };
    }

    GpuTop gpu(cfg.numCores, cfg.mem, workload, factory,
               cfg.largePages, cfg.physFrames);
    if (*l2)
        (*l2)->regStats(gpu.stats(), "l2tlb");
    if (*iommu)
        (*iommu)->regStats(gpu.stats(), "iommu");

    if (telemetry != nullptr)
        telemetry->setMeta(workload.name(), cfg_in.name);
    const Probes probes = armObservers(gpu.eventQueue(), gpu.stats(),
                                       trace, telemetry, spans);
    gpu.observe(probes);
    // The shared unit is not a per-core component; tid -1 marks the
    // GPU-wide instance.
    if (*l2)
        (*l2)->observe(probes, -1);
    if (*iommu)
        (*iommu)->observe(probes, -1);
    armMemTrace(gpu, memtrace, cfg);

    RunOutput out = finishRun(gpu, workload.name(), cfg, telemetry);
    if (memtrace != nullptr && !memtrace->finish(out.stats.cycles)) {
        GPUMMU_FATAL("memory-trace capture failed: ",
                     memtrace->error());
    }
    // The shared unit is not reached by GpuTop's per-core sweep, so
    // its drain invariants are verified here.
    if (*l2)
        (*l2)->checkEndOfKernel();
    if (*iommu)
        (*iommu)->checkEndOfKernel();
    return out;
}

RunOutput
runConfigFull(BenchmarkId bench, const SystemConfig &cfg,
              const WorkloadParams &params, TraceSink *trace,
              Telemetry *telemetry, MemTraceWriter *memtrace,
              SpanTracker *spans)
{
    auto workload = makeWorkload(bench, params);
    return runWorkloadFull(*workload, cfg, trace, telemetry,
                           memtrace, spans);
}

RunStats
runConfig(BenchmarkId bench, const SystemConfig &cfg,
          const WorkloadParams &params)
{
    return runConfigFull(bench, cfg, params).stats;
}

const RunOutput &
Experiment::runFull(BenchmarkId bench, const SystemConfig &cfg)
{
    // cfg.name alone does not encode every field callers vary (tests
    // shrink numCores without renaming, or arm the checker), so widen
    // the key a little.
    const std::string key = benchmarkName(bench) + "/" + cfg.name +
                            "/c" + std::to_string(cfg.numCores) +
                            (cfg.checkInvariants ? "/chk" : "");

    // Either adopt an existing latch for the key or install our own;
    // only the installing thread simulates, everyone else blocks on
    // the shared_future.
    std::promise<RunOutput> promise;
    std::shared_future<RunOutput> latch;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            latch = promise.get_future().share();
            cache_.emplace(key, latch);
            misses_++;
            owner = true;
        } else {
            latch = it->second;
        }
    }
    if (owner) {
        try {
            promise.set_value(runConfigFull(bench, cfg, params_));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return latch.get();
}

RunStats
Experiment::run(BenchmarkId bench, const SystemConfig &cfg)
{
    return runFull(bench, cfg).stats;
}

std::size_t
Experiment::missCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

double
Experiment::speedup(BenchmarkId bench, const SystemConfig &cfg,
                    const SystemConfig &baseline)
{
    const RunStats base = run(bench, baseline);
    const RunStats var = run(bench, cfg);
    GPUMMU_ASSERT(var.cycles > 0);
    return static_cast<double>(base.cycles) /
           static_cast<double>(var.cycles);
}

ReportTable::ReportTable(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
}

void
ReportTable::addRow(std::vector<std::string> cells)
{
    GPUMMU_ASSERT(cells.size() == columns_.size(),
                  "row width mismatch");
    rows_.push_back(std::move(cells));
}

void
ReportTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << cells[c];
            os << (c + 1 < cells.size() ? "  " : "");
        }
        os << "\n";
    };
    line(columns_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        line(row);
}

std::string
ReportTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
ReportTable::pct(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v * 100.0
       << "%";
    return os.str();
}

} // namespace gpummu
