/**
 * @file
 * Chrome trace-event JSON export (Perfetto / chrome://tracing).
 *
 * Maps one compilation onto two trace "processes":
 *  - pid 1 "compiler (wall clock)" — the span tracer's records (pass.*
 *    and the hot-layer spans), real microseconds, one track per thread;
 *  - pid 2 "schedule (simulated time)" — the scheduler's TraceEntry
 *    log, cycles converted to microseconds by the cost model: braids
 *    and SWAPs on greedily-packed tracks so concurrent braids render
 *    side by side, plus a "utilization" counter track carrying the
 *    Fig. 17-style per-instant routing-vertex occupancy timeline.
 *
 * bench/fig17_utilization prints ScheduleResult's own peak and average
 * utilization, not this timeline; AB_TRACE_OUT there dumps a trace
 * through this exporter.
 *
 * Builds into ab_viz (not ab_telemetry): serializing reports needs the
 * compiler layer, while the telemetry core must stay below everything.
 */

#ifndef AUTOBRAID_TELEMETRY_CHROME_TRACE_HPP
#define AUTOBRAID_TELEMETRY_CHROME_TRACE_HPP

#include <string>
#include <vector>

#include "compiler/report.hpp"
#include "lattice/cost_model.hpp"
#include "lattice/geometry.hpp"

namespace autobraid {
namespace telemetry {

/** One step of the per-instant utilization timeline. */
struct UtilPoint
{
    Cycles time = 0;          ///< instant (cycles) the value takes effect
    size_t busy_vertices = 0; ///< routing vertices reserved from here
    double busy_fraction = 0; ///< busy_vertices / grid.numVertices()
};

/**
 * Derive the routing-vertex occupancy timeline from a traced schedule:
 * each path occupies its vertices from TraceEntry::start until
 * TraceEntry::channel_release. Requires record_trace; returns an empty
 * timeline for untraced results.
 */
std::vector<UtilPoint> utilizationTimeline(const ScheduleResult &result,
                                           const Grid &grid);

/**
 * Serialize @p report as a Chrome trace-event JSON document. Includes
 * whatever is present: telemetry spans (falling back to the pass
 * timings when spans were off), the schedule trace, the utilization
 * counter track.
 */
std::string chromeTraceJson(const CompileReport &report,
                            const CostModel &cost);

} // namespace telemetry
} // namespace autobraid

#endif // AUTOBRAID_TELEMETRY_CHROME_TRACE_HPP
