/**
 * @file
 * The observers a component can be armed with, as one value.
 *
 * Every simulated component that has hooks (TLBs, walkers, L2 TLB,
 * MMU, IOMMU, memory stage, L1, memory system, shader cores, GpuTop)
 * takes a Probes through one observe() call and keeps a copy. Each
 * hook tests its own pointer (`if (probes_.trace)`), so an unarmed
 * run pays one never-taken branch per hook, as before, and armed and
 * unarmed runs stay bit-identical. A component passes the same value
 * on to its children, clearing any pointer the child must not use.
 */

#ifndef SIM_PROBES_HH
#define SIM_PROBES_HH

namespace gpummu {

class HeatProfiler;
class SpanTracker;
class TraceSink;

struct Probes
{
    /** Chrome-trace event sink (trace/trace.hh). */
    TraceSink *trace = nullptr;
    /** Per-VPN / per-PTE-line walk attribution, owned by a Telemetry
     *  (telemetry/telemetry.hh). */
    HeatProfiler *heat = nullptr;
    /** Translation-lifecycle span tracker (telemetry/span.hh). */
    SpanTracker *spans = nullptr;
};

} // namespace gpummu

#endif // SIM_PROBES_HH
