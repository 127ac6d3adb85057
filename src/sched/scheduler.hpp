/**
 * @file
 * Event-driven braid scheduler (paper Fig. 10, stage 3).
 *
 * The scheduler walks the dependence DAG with a discrete-event loop. At
 * every scheduling instant it dispatches ready tile-local gates
 * immediately and hands the ready CX gates to the policy's path finder
 * (greedy baseline or AutoBraid's stack finder); routed braids reserve
 * their vertices for the CX duration. Under the AutobraidFull policy a
 * scheduling ratio below p% triggers the dynamic layout optimizer, which
 * inserts simultaneously routable SWAPs; and for all-to-all coupling
 * patterns a separate Maslov swap-network mode is also run, the better
 * schedule winning (paper §3.3.2).
 */

#ifndef AUTOBRAID_SCHED_SCHEDULER_HPP
#define AUTOBRAID_SCHED_SCHEDULER_HPP

#include <limits>

#include "circuit/dag.hpp"
#include "place/placement.hpp"
#include "sched/metrics.hpp"
#include "sched/policy.hpp"

namespace autobraid {

/**
 * Bounds one scheduler run of a portfolio. The run stops as soon as a
 * sound lower bound on its makespan reaches @ref cutoff: it can then
 * no longer be strictly shorter than the incumbent whose makespan is
 * the cutoff. A stopped run returns with valid = false and is
 * discarded like a starved Maslov run; see docs/scheduler.md.
 */
struct RunLimit
{
    /** "No cutoff". Not 0: a cutoff of 0 stops every run. */
    static constexpr Cycles kNoCutoff = std::numeric_limits<Cycles>::max();

    Cycles cutoff = kNoCutoff;
};

/** Schedules one circuit onto one grid under one policy. */
class BraidScheduler
{
  public:
    /**
     * @param circuit circuit to schedule (must outlive the scheduler)
     * @param grid tile grid (must outlive the scheduler)
     * @param config policy and cost model
     */
    BraidScheduler(const Circuit &circuit, const Grid &grid,
                   const SchedulerConfig &config);

    /**
     * Run the policy's standard mode from @p placement. Sets
     * result.valid = false if @p limit stopped the run.
     */
    ScheduleResult run(const Placement &placement,
                       RunLimit limit = {}) const;

    /**
     * Run the Maslov swap-network mode from @p placement (qubits should
     * occupy a snake prefix). Sets result.valid = false if the mode
     * starves or @p limit stopped it (the caller then discards it).
     */
    ScheduleResult runMaslov(const Placement &placement,
                             RunLimit limit = {}) const;

    /** The dependence DAG (shared with the harness for CP numbers). */
    const Dag &dag() const { return dag_; }

  private:
    const Circuit *circuit_;
    const Grid *grid_;
    SchedulerConfig config_;
    Dag dag_;
};

/**
 * The flight recording of a finished @p policy run of @p circuit on
 * @p grid under @p backend, computed from what the run kept: its
 * @p trace, its @p blocked log (each examination at which a ready gate
 * could not dispatch, in time order) and each vertex's busy cycles,
 * clamped to [0, @p makespan].
 *
 * A gate dispatches at its trace entry's start and retires at its
 * finish; a gate still in flight when a starved Maslov run stopped
 * finishes past the makespan and has no retired cycle. It is ready at
 * its first examination, or at its dispatch if it was never examined.
 * Each wait, from an examination to the gate's next one or to its
 * dispatch, is charged to the cause seen at its start, so a
 * dispatched gate's stall cycles sum to `dispatched - ready`.
 */
telemetry::FlightRecording
flightRecording(const Circuit &circuit, const Grid &grid,
                SchedulerPolicy policy, SchedulerBackend backend,
                const std::vector<TraceEntry> &trace,
                std::vector<telemetry::BlockedEvent> blocked,
                std::vector<uint64_t> vertex_busy_cycles,
                Cycles makespan);

} // namespace autobraid

#endif // AUTOBRAID_SCHED_SCHEDULER_HPP
