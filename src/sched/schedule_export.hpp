/**
 * @file
 * Versioned schedule export (format=autobraid-schedule v1).
 *
 * Serializes one ScheduleResult trace — per-gate start/finish window,
 * channel release, routing path or merge-region vertices — together
 * with everything an *independent* checker needs to re-verify it:
 * the gate list, grid dimensions, code distance, backend, channel
 * hold, dead vertices, and (when available) the initial placement.
 * The export is self-contained by design: tools/autobraid_certify
 * consumes it through src/common/json without linking the scheduler.
 * Schema documented in docs/observability.md.
 *
 * This file is the one place that maps a ScheduleResult into that
 * document, as text (scheduleToJson) or as the certifier's in-memory
 * certify::Schedule (scheduleDocument): an inserted SWAP becomes gate
 * -1 and a channel release of 0 becomes the entry's finish.
 */

#ifndef AUTOBRAID_SCHED_SCHEDULE_EXPORT_HPP
#define AUTOBRAID_SCHED_SCHEDULE_EXPORT_HPP

#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "place/placement.hpp"
#include "sched/metrics.hpp"
#include "sched/policy.hpp"

namespace autobraid {

class Circuit;

/** Compilation facts embedded alongside the trace itself. */
struct ScheduleExportInfo
{
    const Circuit *circuit = nullptr; ///< required
    const Grid *grid = nullptr;       ///< required
    SchedulerPolicy policy = SchedulerPolicy::AutobraidFull;
    int distance = 33;                ///< code distance (durations)
    Cycles channel_hold_cycles = 0;   ///< 0 = full-window braiding
    bool used_maslov = false;         ///< swap-network fallback fired
    std::vector<VertexId> dead_vertices;

    /**
     * Initial placement (qubit -> cell id), optional. Embedding it
     * lets the certifier recompute the AB202 channel-capacity lower
     * bound; the bound is only sound for swap-free braiding runs, so
     * the certifier gates on swaps_inserted == 0 && !used_maslov.
     */
    const Placement *placement = nullptr;
};

/**
 * Render @p result as an autobraid-schedule v1 JSON document.
 * Requires a recorded trace (ScheduleResult::trace); the trace may
 * legitimately be empty only for empty circuits.
 */
std::string scheduleToJson(const ScheduleExportInfo &info,
                           const ScheduleResult &result);

/**
 * The same document as plain values, for certifying without a text
 * round trip: equal, field for field, to certify::decodeSchedule() of
 * scheduleToJson()'s text.
 */
certify::Schedule scheduleDocument(const ScheduleExportInfo &info,
                                   const ScheduleResult &result);

} // namespace autobraid

#endif // AUTOBRAID_SCHED_SCHEDULE_EXPORT_HPP
