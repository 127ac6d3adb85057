/**
 * @file
 * Scheduling metrics.
 *
 * Captures everything the paper's evaluation reports: encoded-circuit
 * makespan (surface-code cycles -> microseconds), routing-resource
 * utilization (peak and time-weighted average share of occupied
 * vertices, Fig. 17), SWAP insertions and routing failures. Compile
 * time (§4.2) is CompileReport::total_seconds, over every stage.
 */

#ifndef AUTOBRAID_SCHED_METRICS_HPP
#define AUTOBRAID_SCHED_METRICS_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/dag.hpp"
#include "lattice/cost_model.hpp"
#include "route/path.hpp"
#include "sched/backend.hpp"
#include "telemetry/recorder.hpp"

namespace autobraid {

/** Sentinel gate index for trace entries that are inserted SWAPs. */
constexpr GateIdx kNoGate = static_cast<GateIdx>(-1);

/** One scheduled operation (only recorded when tracing is enabled). */
struct TraceEntry
{
    GateIdx gate = kNoGate; ///< kNoGate for layout/network SWAPs
    Cycles start = 0;
    Cycles finish = 0;
    Path path;              ///< empty for tile-local gates

    /**
     * When the routing vertices free up. Equal to finish for braids
     * (the path is held for the whole CX window); earlier in
     * teleportation mode (channel released after EPR distribution).
     */
    Cycles channel_release = 0;
    Qubit swap_a = kNoQubit;
    Qubit swap_b = kNoQubit;
};

/** Result of scheduling one circuit. */
struct ScheduleResult
{
    /** Backend that produced this schedule (sets gate durations). */
    SchedulerBackend backend = SchedulerBackend::Braiding;

    Cycles makespan = 0;           ///< encoded-circuit latency in cycles
    size_t gates_scheduled = 0;    ///< gates retired
    size_t braids_routed = 0;      ///< CX/Swap braids established
    size_t swaps_inserted = 0;     ///< layout-optimizer / Maslov swaps
    size_t routing_failures = 0;   ///< per-instant CX routing misses
    size_t layout_invocations = 0; ///< optimizer trigger count
    size_t dispatch_instants = 0;  ///< scheduling instants processed
    double peak_utilization = 0;   ///< max fraction of busy vertices
    double avg_utilization = 0;    ///< time-weighted busy-vertex share
    size_t max_concurrent_braids = 0;
    bool valid = true;             ///< false when a mode aborted

    /**
     * Full operation trace (empty unless SchedulerConfig::record_trace;
     * a run under record_lifecycle alone computes its recording from
     * the trace and then drops it).
     */
    std::vector<TraceEntry> trace;

    /**
     * Flight recording, computed from the trace (null unless
     * SchedulerConfig::record_lifecycle). Shared so result replacement
     * (best-of-p0, Maslov fallback) carries the matching recording
     * with it.
     */
    std::shared_ptr<telemetry::FlightRecording> recording;

    /** Makespan in microseconds under @p cost. */
    double micros(const CostModel &cost) const
    {
        return cost.micros(makespan);
    }
};

} // namespace autobraid

#endif // AUTOBRAID_SCHED_METRICS_HPP
