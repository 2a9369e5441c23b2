#include "core/multi_tenant.hh"

#include <algorithm>
#include <sstream>

#include "core/presets.hh"
#include "core/run_support.hh"
#include "gpu/gpu_top.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"

namespace gpummu {

namespace {

/** Book-keeping for one co-scheduled process. */
struct Tenant
{
    Process *proc = nullptr;
    std::unique_ptr<Workload> workload;
    LaunchParams launch;
    unsigned nextBlock = 0;
    bool finished = false;
    TenantResult res;
};

/**
 * Run one slice: @p t's next blocksPerSlice thread blocks on a fresh
 * set of cores, to drain. Returns the cycle the slice ends. Cores are
 * transient and never stat-registered — per-tenant numbers accumulate
 * into t.res here, and the persistent structures (mem, IOMMU, OS)
 * carry the cross-slice state.
 */
Cycle
runSlice(Tenant &t, const SystemConfig &sys, Iommu &iommu,
         MemorySystem &mem, EventQueue &eq, const Probes &probes,
         Telemetry *telemetry, Cycle clock, unsigned blocks_per_slice)
{
    std::vector<std::unique_ptr<ShaderCore>> cores;
    cores.reserve(sys.numCores);
    for (unsigned i = 0; i < sys.numCores; ++i) {
        auto core = std::make_unique<SimtCore>(
            static_cast<int>(i), sys.core, t.launch, t.proc->as, mem,
            eq);
        core->setScheduler(makeScheduler(sys));
        core->setIommu(&iommu);
        core->memStage().setAsid(t.proc->asid);
        core->observe(probes);
        cores.push_back(std::move(core));
    }

    // GpuTop's cycle loop, on the persistent clock.
    const unsigned end_block =
        std::min(t.launch.totalBlocks, t.nextBlock + blocks_per_slice);
    const Cycle cycle =
        runCycleLoop(cores, eq, telemetry, t.nextBlock, end_block,
                     clock, sys.maxCycles)
            .endCycle;

    for (auto &core : cores) {
        core->mmu().endKernel();
        core->finalizeRun();
        t.res.instructions += core->instructionsIssued();
        t.res.memInstructions += core->memStage().memInstructions();
        t.res.l1Accesses += core->l1().accesses();
        t.res.l1Hits += core->l1().hits();
        t.res.idleCycles += core->idleCycles();
    }
    t.res.activeCycles += cycle - clock;
    t.res.blocks = t.nextBlock;

    // The slice drained, so nothing of this tenant is in flight; the
    // shared IOMMU must hold no blocking state either.
    iommu.checkEndOfKernel();
    return cycle;
}

} // namespace

MultiTenantResult
runMultiTenant(const MultiTenantConfig &cfg_in, TraceSink *trace,
               Telemetry *telemetry, SpanTracker *spans)
{
    GPUMMU_ASSERT(!cfg_in.tenants.empty(),
                  "multi-tenant run with no tenants");
    GPUMMU_ASSERT(cfg_in.system.iommu &&
                      !cfg_in.system.core.mmu.enabled,
                  "multi-tenant runs require the IOMMU organisation "
                  "(presets::iommu()): per-core MMUs hold one "
                  "process's translations");
    GPUMMU_ASSERT(!cfg_in.system.l2tlb.enabled,
                  "IOMMU mode has no per-core miss path for an L2 TLB");
    GPUMMU_ASSERT(!(cfg_in.lazyBacking && cfg_in.system.largePages),
                  "demand paging is 4KB-granular; 2MB mappings emerge "
                  "via coalescing, not largePages");
    GPUMMU_ASSERT(cfg_in.blocksPerSlice > 0);

    SystemConfig sys = cfg_in.system;
    if (sys.checkInvariants) {
        sys.core.mmu.checkInvariants = true;
        sys.iommuCfg.checkInvariants = true;
    }

    PhysicalMemory phys(sys.physFrames);
    ProcessManager pm(phys, cfg_in.os);
    EventQueue eq;
    MemorySystem mem(sys.mem);
    StatRegistry stats;

    std::vector<Tenant> tenants;
    tenants.reserve(cfg_in.tenants.size());
    for (const TenantSpec &spec : cfg_in.tenants) {
        Tenant t;
        t.proc = &pm.create(spec.name, sys.largePages,
                            cfg_in.lazyBacking);
        t.workload = makeWorkload(spec.bench, cfg_in.params);
        t.workload->build(t.proc->as);
        t.workload->program().validate();
        t.launch.program = &t.workload->program();
        t.launch.threadsPerBlock = t.workload->threadsPerBlock();
        t.launch.totalBlocks = t.workload->numBlocks();
        t.launch.seed = t.workload->params().seed;
        GPUMMU_ASSERT(t.launch.totalBlocks > 0);
        t.res.name = spec.name;
        t.res.asid = t.proc->asid;
        tenants.push_back(std::move(t));
    }

    // One shared IOMMU for the whole machine, anchored on the first
    // tenant's space; attachProcesses lets it resolve any registered
    // ASID (and teaches the armed checker every reference walker).
    Iommu iommu(sys.iommuCfg, tenants.front().proc->as, mem, eq);
    iommu.attachProcesses(&pm);
    pm.addTlbTarget(&iommu.tlb(), kPageShift4K);
    pm.addWalkerTarget(&iommu.walkers());

    mem.regStats(stats, "mem");
    iommu.regStats(stats, "iommu");
    pm.regStats(stats, "os");
    Counter slices;
    stats.addCounter("mt.slices", &slices);

    if (telemetry != nullptr)
        telemetry->setMeta("multi-tenant", sys.name);
    const Probes probes =
        armObservers(eq, stats, trace, telemetry, spans);
    mem.observe(probes);
    iommu.observe(probes, -1);

    // Round-robin block-granular time slicing until every tenant has
    // retired its grid. A finishing tenant exits: its remaining
    // regions unmap and the shootdowns storm the shared structures
    // while the survivors' entries stay put.
    Cycle clock = 0;
    int last = -1;
    for (;;) {
        int pick = -1;
        const int n = static_cast<int>(tenants.size());
        for (int off = 1; off <= n; ++off) {
            const int i = (last + off) % n;
            if (!tenants[static_cast<std::size_t>(i)].finished) {
                pick = i;
                break;
            }
        }
        if (pick < 0)
            break;
        Tenant &t = tenants[static_cast<std::size_t>(pick)];
        if (last >= 0) {
            const Asid from =
                tenants[static_cast<std::size_t>(last)].proc->asid;
            clock += pm.noteContextSwitch(from, t.proc->asid);
        }
        last = pick;
        slices.inc();
        clock = runSlice(t, sys, iommu, mem, eq, probes, telemetry,
                         clock, cfg_in.blocksPerSlice);
        if (t.nextBlock >= t.launch.totalBlocks) {
            t.finished = true;
            clock = pm.destroy(t.proc->asid, clock);
        }
    }

    if (telemetry != nullptr)
        telemetry->finish(clock, stats);

    MultiTenantResult out;
    for (const Tenant &t : tenants)
        out.tenants.push_back(t.res);
    out.totalCycles = clock;
    out.slices = slices.value();
    out.contextSwitches = pm.contextSwitches();
    out.shootdowns = pm.shootdowns();
    out.shootdownEntries = pm.shootdownEntries();
    out.faults = pm.faults();
    out.coalesces = pm.coalesces();
    out.splinters = pm.splinters();
    out.iommuLookups = iommu.lookups();
    out.iommuHits = iommu.hits();
    out.eventsFired = eq.eventsFired();

    std::ostringstream os;
    os << "{\"config\":\"" << jsonEscape(sys.name)
       << "\",\"tenants\":[";
    bool first = true;
    for (const TenantResult &r : out.tenants) {
        os << (first ? "" : ",") << "{\"name\":\""
           << jsonEscape(r.name) << "\",\"asid\":" << r.asid
           << ",\"blocks\":" << r.blocks
           << ",\"active_cycles\":" << r.activeCycles
           << ",\"instructions\":" << r.instructions
           << ",\"mem_instructions\":" << r.memInstructions
           << ",\"l1_accesses\":" << r.l1Accesses
           << ",\"l1_hits\":" << r.l1Hits
           << ",\"idle_cycles\":" << r.idleCycles << "}";
        first = false;
    }
    os << "],\"total_cycles\":" << out.totalCycles
       << ",\"slices\":" << out.slices
       << ",\"context_switches\":" << out.contextSwitches
       << ",\"shootdowns\":" << out.shootdowns
       << ",\"shootdown_entries\":" << out.shootdownEntries
       << ",\"faults\":" << out.faults
       << ",\"coalesces\":" << out.coalesces
       << ",\"splinters\":" << out.splinters
       << ",\"iommu_lookups\":" << out.iommuLookups
       << ",\"iommu_hits\":" << out.iommuHits << ",\"stats\":";
    stats.dumpJson(os);
    os << "}";
    out.statsJson = os.str();
    return out;
}

MultiTenantConfig
defaultMultiTenant(double scale)
{
    MultiTenantConfig cfg;
    cfg.system = presets::iommu();
    cfg.system.name = "iommu-mt";
    cfg.params.scale = scale;
    const auto pair = defaultTenantPair();
    for (BenchmarkId id : pair)
        cfg.tenants.push_back({id, benchmarkName(id)});
    return cfg;
}

} // namespace gpummu
