/**
 * @file
 * A schedule's flight recording: per-gate lifecycles with exact stall
 * attribution, plus a per-vertex congestion heatmap, as plain values
 * with their JSON writer and decoder.
 *
 * The scheduler (sched/scheduler.hpp, flightRecording) computes a
 * recording at the end of a run from three facts it keeps anyway: its
 * trace, the log of blocked examinations, and each vertex's busy
 * cycles. So braiding and lattice-surgery schedules attribute stalls
 * identically, and a recording cannot disagree with the trace:
 *
 *   ready -> [blocked(cause)]* -> dispatched -> retired
 *
 * A gate is ready at its first examination, and each wait, from one
 * examination to the next or to the dispatch, is charged to the cause
 * seen at its start. So the per-gate stall cycles sum to exactly
 * `dispatched - ready`, the invariant the fuzz oracle enforces.
 *
 * The stall-cause taxonomy (docs/observability.md):
 *  - Dependence:     an operand qubit is still executing an earlier
 *                    gate (or the baseline's level gate holds it back);
 *  - Congestion:     routing failed while in-flight regions occupied
 *                    lattice vertices (or, in Maslov mode, the swap
 *                    network has not yet brought the operands together);
 *  - RegionConflict: routing failed on an idle lattice — the gate lost
 *                    the same-instant vertex-disjointness competition;
 *  - Defect:         routing failed on an idle, uncontended lattice
 *                    that has permanently dead vertices configured.
 *
 * Recordings are opt-in (SchedulerConfig::record_lifecycle) and
 * contain only simulated-time values (cycles, indices), so they are
 * byte-identical across thread counts and repeat runs.
 *
 * Header-only types use plain integers (not circuit/lattice typedefs)
 * so ab_telemetry keeps depending only on ab_common.
 */

#ifndef AUTOBRAID_TELEMETRY_RECORDER_HPP
#define AUTOBRAID_TELEMETRY_RECORDER_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace autobraid {

namespace telemetry {

/** Why a ready gate failed to dispatch at a scheduling instant. */
enum class StallCause : uint8_t
{
    Dependence,
    Congestion,
    RegionConflict,
    Defect,
};

/** Number of StallCause values (array sizing). */
constexpr size_t kNumStallCauses = 4;

/** Stable lowercase name of @p cause ("region_conflict", ...). */
const char *stallCauseName(StallCause cause);

/** Sentinel for lifecycle timestamps that were never recorded. */
constexpr uint64_t kNoCycle = ~uint64_t{0};

/** One gate's recorded lifecycle. */
struct GateRecord
{
    uint64_t ready = kNoCycle;      ///< entered the ready front
    uint64_t dispatched = kNoCycle; ///< resources acquired, issued
    uint64_t retired = kNoCycle;    ///< finished executing

    /** Stall cycles charged to each cause (index = StallCause). */
    uint64_t stall[kNumStallCauses] = {0, 0, 0, 0};

    /** Blocked examinations (dispatch instants the gate waited at). */
    uint32_t blocked_attempts = 0;

    // Static gate facts, copied from the circuit so a recording is
    // self-contained for downstream tooling (autobraid_inspect).
    int32_t q0 = -1;
    int32_t q1 = -1;
    std::string kind; ///< QASM-style mnemonic ("cx", "h", ...)

    /** Total stall cycles across all causes. */
    uint64_t stallTotal() const
    {
        uint64_t total = 0;
        for (uint64_t s : stall)
            total += s;
        return total;
    }

    /** True when ready/dispatched/retired are all recorded. */
    bool complete() const
    {
        return ready != kNoCycle && dispatched != kNoCycle &&
               retired != kNoCycle;
    }
};

/** One blocked route-attempt event (chronological log). */
struct BlockedEvent
{
    uint64_t gate = 0;
    uint64_t cycle = 0;
    StallCause cause = StallCause::Dependence;
};

/** Immutable result of one recorded scheduling run. */
struct FlightRecording
{
    // Metadata, filled by the scheduler.
    std::string circuit;
    std::string policy;
    std::string backend;
    int grid_rows = 0; ///< lattice vertex rows (heatmap height)
    int grid_cols = 0; ///< lattice vertex cols (heatmap width)
    uint64_t makespan = 0;

    /** One record per circuit gate, indexed by gate. */
    std::vector<GateRecord> gates;

    /** Chronological log of blocked examinations. */
    std::vector<BlockedEvent> blocked;

    /**
     * Per-vertex busy cycles: every acquired region (braid path, SWAP
     * path, surgery merge region) charges its hold window to each of
     * its vertices. The sum over all vertices equals the scheduler's
     * busy-cycle total (the utilization numerator) exactly.
     */
    std::vector<uint64_t> vertex_busy_cycles;

    /** Total stall cycles per cause, over all gates. */
    uint64_t stall_totals[kNumStallCauses] = {0, 0, 0, 0};

    /** Sum of stall_totals. */
    uint64_t stallTotal() const
    {
        uint64_t total = 0;
        for (uint64_t s : stall_totals)
            total += s;
        return total;
    }

    /** Sum of vertex_busy_cycles. */
    uint64_t heatmapSum() const
    {
        uint64_t total = 0;
        for (uint64_t v : vertex_busy_cycles)
            total += v;
        return total;
    }

    /**
     * Serialize as the versioned recording JSON document consumed by
     * tools/autobraid_inspect (docs/observability.md).
     */
    std::string toJson() const;
};

/**
 * Decode @p text, a document written by FlightRecording::toJson,
 * blocked events included, so toJson() of the result reproduces it.
 * It reads straight from json::Reader and builds no tree. Raises
 * UserError on malformed JSON, and naming the field when @p text is
 * not a recording: every number must be an
 * exact non-negative integer (a gate operand may also be -1, none),
 * vertex_busy_cycles must have grid_rows x grid_cols entries, and each
 * gate operand must be below that count. Recordings always satisfy
 * both: the heatmap has one entry per vertex, and a qubit index is
 * below the tile count. Decode errors wait until the whole text has
 * been read, so a syntax error anywhere wins; among decode errors the
 * first in a fixed field order wins, whatever order the members come
 * in, and a repeated member counts only as its last occurrence.
 */
FlightRecording decodeRecording(std::string_view text);

} // namespace telemetry
} // namespace autobraid

#endif // AUTOBRAID_TELEMETRY_RECORDER_HPP
