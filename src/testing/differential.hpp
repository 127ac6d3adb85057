/**
 * @file
 * Differential oracle: compile one fuzz case under every scheduler
 * policy and cross-check the results.
 *
 * Per policy, the schedule must certify clean (analysis/certify:
 * time-window ordering, durations, coverage, exact makespan and braid
 * counts, dependence order, path geometry, vertex-disjointness per
 * time window) and retire every circuit gate with a makespan no
 * shorter than the dependence-weighted critical path, and its peak
 * utilization must equal the one its trace implies. Across
 * policies, the retired gate set must be identical (the whole
 * circuit) and the reported critical path must agree. A separate
 * check compiles the same case through BatchCompiler on 1 worker and
 * on N workers and requires byte-identical metricsSummary() output.
 *
 * On braiding cases the AutobraidFull compile also meets the
 * portfolio oracle: the same portfolio rebuilt from scheduler runs
 * with no limit (triggered, p = 0, Maslov) must keep the same
 * schedule, recording and win counters as the compile, whose
 * alternatives stop once they cannot win.
 *
 * With the lint oracle enabled (the default), every case also runs
 * the static analyses: the standalone lint entry points must never
 * throw on any generated circuit/lattice, an error-level lint implies
 * the compiler either rejected the case or still produced a valid
 * schedule (routed around the defect), and the AB202 channel-capacity
 * bound must not exceed the achieved makespan on swap-free,
 * non-Maslov schedules.
 *
 * Every valid schedule is certified twice: in memory
 * (sched/schedule_export's scheduleDocument) and through the text
 * round trip (scheduleToJson, then certifyScheduleText). The two
 * certificates must be byte-identical, so the exporter and the
 * certifier's JSON decoder can never drift apart from the in-memory
 * path the compiler itself uses.
 */

#ifndef AUTOBRAID_TESTING_DIFFERENTIAL_HPP
#define AUTOBRAID_TESTING_DIFFERENTIAL_HPP

#include <string>
#include <vector>

#include "compiler/driver.hpp"
#include "testing/fuzzer.hpp"

namespace autobraid {
namespace fuzz {

/** Policy-mask bits for selecting which policies to cross-check. */
enum PolicyMask : unsigned
{
    kMaskBaseline = 1u,      ///< SchedulerPolicy::Baseline
    kMaskAutobraidSP = 2u,   ///< SchedulerPolicy::AutobraidSP
    kMaskAutobraidFull = 4u, ///< SchedulerPolicy::AutobraidFull
    kMaskAll = 7u,
};

/**
 * Parse a policy mask: either a number ("7") or a comma-separated
 * list of names from {baseline, sp, full, all}. Throws UserError on
 * unknown names or an empty mask.
 */
unsigned parsePolicyMask(const std::string &text);

/** Render a mask back as a name list ("baseline,sp,full"). */
std::string policyMaskName(unsigned mask);

/** One policy's compilation within a differential run. */
struct PolicyOutcome
{
    SchedulerPolicy policy = SchedulerPolicy::Baseline;
    bool compiled = false;  ///< compileCircuit returned (vs. threw)
    std::string error;      ///< exception text when !compiled
    CompileReport report;
};

/** Outcome of one differential case. */
struct DifferentialResult
{
    uint64_t seed = 0;
    bool ok = true;
    std::vector<std::string> failures;
    std::vector<PolicyOutcome> runs;

    /** Failure list joined with newlines ("" when ok). */
    std::string toString() const;
};

/**
 * Compile @p c under every policy in @p mask and cross-check. When
 * @p lint_oracle is set, the pipeline runs with lint level All and
 * the lint invariants above are checked alongside the schedule ones.
 * The case's CompileOptions::backend selects the
 * communication backend; every per-policy oracle is backend-aware
 * (the AB202 bound check only applies to braiding schedules).
 */
DifferentialResult runDifferentialCase(const FuzzCase &c,
                                       unsigned mask = kMaskAll,
                                       bool lint_oracle = true);

/**
 * The peak utilization @p trace implies: the most vertices its regions
 * hold at once, over the vertices of @p grid that are not in
 * @p dead_vertices. An entry holds its path on [start,
 * channel_release), so the held count can only rise at a start, and
 * every start is a dispatch instant, where the scheduler samples the
 * count: its ScheduleResult::peak_utilization must equal this exactly.
 */
double tracePeakUtilization(const std::vector<TraceEntry> &trace,
                            const Grid &grid,
                            const std::vector<VertexId> &dead_vertices);

/**
 * Compile the case's policy variants through BatchCompiler with 1
 * worker and with @p threads workers (seed derivation off) and return
 * any metricsSummary() mismatches. Empty = deterministic.
 */
std::vector<std::string> checkBatchDeterminism(const FuzzCase &c,
                                               unsigned mask = kMaskAll,
                                               int threads = 4);

/**
 * Compile the case's policy variants with route_jobs = 1 and with
 * route_jobs = @p jobs (trace and lifecycle recording on, a
 * metrics-only telemetry sink) and return any mismatches.
 * Component-parallel routing promises byte-identical schedules for
 * every worker count, and its workers report into the compile's sink,
 * so the makespan, the full trace (including routed paths), the
 * flight-recording JSON and the metrics snapshot must all agree
 * exactly. Empty = deterministic.
 */
std::vector<std::string>
checkRouteJobsDeterminism(const FuzzCase &c, unsigned mask = kMaskAll,
                          int jobs = 8);

/**
 * Degenerate-lattice case: drive BraidScheduler directly on strip
 * grids (1xN / Nx1) that Grid::forQubits never produces, with chain
 * traffic and an identity placement, validating each policy's trace
 * against the strip grid under @p backend.
 */
DifferentialResult runDegenerateGridCase(
    uint64_t seed, unsigned mask = kMaskAll,
    SchedulerBackend backend = SchedulerBackend::Braiding);

} // namespace fuzz
} // namespace autobraid

#endif // AUTOBRAID_TESTING_DIFFERENTIAL_HPP
