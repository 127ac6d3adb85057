/**
 * @file
 * Schedule-level advisory lints (AB4xx family).
 *
 * These run after scheduling, over plain summary data extracted from a
 * ScheduleResult (makespan, lower bounds, busy heatmap, activity
 * windows) rather than over scheduler types, so the analysis layer
 * stays below ab_sched in the link order. They are advisories (Note
 * severity): a finding means "the schedule is provably improvable or
 * suspicious", never "the schedule is wrong" — correctness is the
 * certifier's job.
 *
 *  - AB401 optimality gap: makespan exceeds the certified lower bound
 *    (critical path vs. channel capacity) by more than 2x.
 *  - AB402 congestion hotspot: one routing vertex is busy for at
 *    least half of the schedule.
 *  - AB403 idle-resource window: at least a quarter of the schedule
 *    has no braid or merge region in flight.
 */

#ifndef AUTOBRAID_ANALYSIS_SCHEDULE_LINTS_HPP
#define AUTOBRAID_ANALYSIS_SCHEDULE_LINTS_HPP

#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "circuit/dag.hpp"

namespace autobraid {
namespace lint {

/** Inputs of the AB4xx schedule lints. */
struct ScheduleLintInput
{
    /** Achieved makespan in cycles (0 = nothing scheduled). */
    Cycles makespan = 0;

    /** Critical-path lower bound in cycles (0 = unknown). */
    Cycles critical_path = 0;

    /** AB202 channel-capacity lower bound in cycles (0 = unknown). */
    Cycles channel_bound = 0;

    /**
     * Per-vertex busy cycles (flight-recorder heatmap); empty when no
     * recording was captured. Index = VertexId.
     */
    std::vector<Cycles> vertex_busy_cycles;

    /**
     * Per-activity [start, release) windows (braids and merge
     * regions); empty disables AB403.
     */
    std::vector<std::pair<Cycles, Cycles>> windows;
};

/**
 * Run the AB4xx advisories over @p input, reporting into @p engine.
 * Also attaches the `schedule_lower_bound_cycles` and
 * `schedule_idle_cycles` metrics when computable.
 */
void lintSchedule(const ScheduleLintInput &input,
                  DiagnosticEngine &engine);

} // namespace lint
} // namespace autobraid

#endif // AUTOBRAID_ANALYSIS_SCHEDULE_LINTS_HPP
