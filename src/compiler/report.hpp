/**
 * @file
 * Compilation report: metrics, per-stage instrumentation, diagnostics.
 *
 * One CompileReport is produced per compiled circuit. Besides the
 * schedule metrics the paper evaluates (critical path, makespan, swap
 * counts, utilization), the report carries the driver's
 * instrumentation: one PassTiming per executed stage and a deterministic
 * counter map (routed/deferred CXs, SWAPs inserted, layout-optimizer
 * triggers, ...). The aggregate timing fields (placement_seconds,
 * total_seconds) are *derived* from the per-stage timings by the driver
 * so they cannot drift from the instrumented sum.
 */

#ifndef AUTOBRAID_COMPILER_REPORT_HPP
#define AUTOBRAID_COMPILER_REPORT_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/metrics.hpp"
#include "sched/policy.hpp"

namespace autobraid {

namespace telemetry {
class Telemetry;
} // namespace telemetry

namespace lint {
class DiagnosticEngine;
} // namespace lint

/** Wall-clock of one executed compile stage. */
struct PassTiming
{
    std::string pass;    ///< stage name, e.g. "schedule"
    double seconds = 0;  ///< wall time of this stage
};

/** Result of one pipeline run. */
struct CompileReport
{
    std::string circuit_name;
    SchedulerPolicy policy = SchedulerPolicy::AutobraidFull;
    SchedulerBackend backend = SchedulerBackend::Braiding;
    int num_qubits = 0;
    size_t num_gates = 0;
    int grid_side = 0;
    Cycles critical_path = 0;    ///< ideal latency (paper's "CP")
    ScheduleResult result;
    bool used_maslov = false;    ///< swap-network mode won

    /** One entry per executed stage, in execution order. */
    std::vector<PassTiming> pass_timings;

    /**
     * Deterministic stage counters (sorted by name): routed_cx,
     * deferred_cx, swaps_inserted, layout_invocations, ... Counters
     * never include wall-clock values, so two runs with the same seed
     * produce byte-identical counter maps.
     */
    std::map<std::string, long> counters;

    /** Validation/diagnostic messages accumulated by the stages. */
    std::vector<std::string> diagnostics;

    /**
     * Telemetry sink of this compilation (spans + metrics registry);
     * null unless CompileOptions::telemetry.enabled. Everything
     * wall-clock or non-deterministic lives here, never in counters,
     * so metricsSummary() stays byte-identical with telemetry on.
     */
    std::shared_ptr<telemetry::Telemetry> telemetry;

    /**
     * Static-analysis diagnostics of this compilation; null unless
     * CompileOptions::lint.level enabled the lint stages. Render with
     * DiagnosticEngine::toText() / toSarif().
     */
    std::shared_ptr<lint::DiagnosticEngine> lint;

    /** Derived: wall time of the initial-placement stage. */
    double placement_seconds = 0;
    /** Derived: sum of every executed stage's wall time. */
    double total_seconds = 0;

    /** Wall time of stage @p name (0 when it did not run). */
    double passSeconds(const std::string &name) const;

    /** Makespan in microseconds. */
    double micros(const CostModel &cost) const
    {
        return result.micros(cost);
    }

    /** Critical path in microseconds. */
    double cpMicros(const CostModel &cost) const
    {
        return cost.micros(critical_path);
    }

    /** Makespan / critical-path ratio (1.0 = ideal). */
    double cpRatio() const;

    /**
     * Canonical, wall-clock-free rendering of every schedule metric and
     * counter. Two compilations of the same circuit under the same
     * options (and seed) yield byte-identical summaries regardless of
     * machine load or thread count — the determinism oracle used by the
     * BatchCompiler tests.
     */
    std::string metricsSummary() const;
};

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_REPORT_HPP
