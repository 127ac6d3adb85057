/**
 * @file
 * Schedule validation: the library front end of the certifier.
 *
 * validateSchedule() checks two preconditions — the result is valid
 * and carries a trace — then maps the trace into the certifier's
 * in-memory schedule document (sched/schedule_export) and runs the
 * certifier's rules (analysis/certify): every gate scheduled exactly
 * once, ordered time windows with channel releases inside them,
 * backend-correct durations, the reported makespan and braid count
 * exact, inserted SWAPs naming their qubit pair, dependence order,
 * path geometry, and temporally overlapping holds vertex-disjoint.
 * Its document carries no placement, channel hold or dead vertices,
 * so the anchoring and dead-vertex rules and the AB202 bound do not
 * run here; the compiler's validate stage certifies the full
 * --schedule-out document instead. The test suite, perfbench and the
 * differential fuzz harness (src/testing/) run every scheduler mode
 * through it.
 */

#ifndef AUTOBRAID_SCHED_VALIDATOR_HPP
#define AUTOBRAID_SCHED_VALIDATOR_HPP

#include <string>
#include <vector>

#include "lattice/geometry.hpp"
#include "sched/metrics.hpp"

namespace autobraid {

/** Outcome of validating one schedule. */
struct ValidationReport
{
    bool ok = true;
    std::vector<std::string> errors;

    /** Append a failure. */
    void fail(std::string message);

    /** All errors joined with newlines ("" when ok). */
    std::string toString() const;
};

/**
 * Validate @p result against @p circuit under @p cost on @p grid; a
 * null @p grid means Grid::forQubits(circuit.numQubits()), the grid
 * compileCircuit() uses. The trace must be present
 * (SchedulerConfig::record_trace). Each error is one certifier
 * violation ("check: message"); past the certifier's cap a final
 * "truncated" entry counts the suppressed rest.
 */
ValidationReport validateSchedule(const Circuit &circuit,
                                  const ScheduleResult &result,
                                  const CostModel &cost,
                                  const Grid *grid = nullptr);

} // namespace autobraid

#endif // AUTOBRAID_SCHED_VALIDATOR_HPP
