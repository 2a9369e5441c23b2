/**
 * @file
 * Pieces the run entry points (runWorkloadFull, runMultiTenant)
 * share: the warp-scheduler factory and the one place a run's
 * observers are armed. Internal to src/core; front ends go through
 * core/experiment.hh and core/multi_tenant.hh.
 */

#ifndef CORE_RUN_SUPPORT_HH
#define CORE_RUN_SUPPORT_HH

#include <memory>

#include "core/system_config.hh"
#include "sched/warp_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/probes.hh"
#include "sim/stats.hh"

namespace gpummu {

class Telemetry;

/** The warp scheduler @p cfg names, sized for its cores. */
std::unique_ptr<WarpScheduler> makeScheduler(const SystemConfig &cfg);

/**
 * Arm a run's observers (any may be null) on its clock @p eq and
 * registry @p stats, after every simulated component registered its
 * stats. Binds the trace and span clocks, links the spans to the
 * trace (flow arrows), begins the telemetry sampler and only then
 * registers the trace's own "trace.*" health counters, so the
 * sampler's columns do not depend on whether a trace shares the run.
 * Returns the Probes to hand to the run's components.
 */
Probes armObservers(const EventQueue &eq, StatRegistry &stats,
                    TraceSink *trace, Telemetry *telemetry,
                    SpanTracker *spans);

} // namespace gpummu

#endif // CORE_RUN_SUPPORT_HH
