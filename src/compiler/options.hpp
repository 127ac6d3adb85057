/**
 * @file
 * User-facing compilation options for the compiler driver.
 *
 * CompileOptions is the one knob surface shared by the CLI, the bench
 * harness, the examples, and the BatchCompiler. It is validated once at
 * the driver entry point (validate()) so that every stage downstream
 * can assume a sane configuration.
 */

#ifndef AUTOBRAID_COMPILER_OPTIONS_HPP
#define AUTOBRAID_COMPILER_OPTIONS_HPP

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "sched/policy.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

class Circuit;

/**
 * User-facing compilation options: the full scheduler configuration
 * plus the switches only the driver reads.
 */
struct CompileOptions : SchedulerConfig
{
    /**
     * AutobraidFull normally also evaluates the never-trigger (p = 0)
     * schedule and keeps the better one, mirroring the paper's p-sweep.
     * The Fig. 18 sensitivity bench disables this to expose the raw
     * effect of each threshold.
     */
    bool best_of_p0 = true;

    /**
     * Telemetry switches. When enabled, the driver attaches a
     * telemetry::Telemetry sink to the compilation (spans + metrics,
     * surfaced as CompileReport::telemetry) — kept strictly separate
     * from the deterministic report counters, so enabling telemetry
     * never changes metricsSummary().
     */
    telemetry::TelemetryOptions telemetry;

    /**
     * Static-analysis level. Off (the default) skips the lint and
     * schedule-lint stages entirely; any other level runs them and
     * surfaces their diagnostics as CompileReport::lint.
     */
    lint::LintLevel lint_level = lint::LintLevel::Off;

    /**
     * Suppressed diagnostic codes: exact ("AB101") or a whole family
     * ("AB1xx"). Validated against the catalog by validate().
     */
    std::vector<std::string> lint_suppressions;

    /** Promote lint warnings to errors (CI gating). */
    bool lint_werror = false;

    /**
     * When non-empty, write a versioned `autobraid-schedule` v1 JSON
     * export of the final schedule to this path (schedule-export
     * stage; docs/observability.md). Implies record_trace — the export
     * is the per-gate trace plus enough layout context for the
     * independent checker (tools/autobraid_certify) to re-verify the
     * schedule from scratch.
     */
    std::string schedule_out;

    /** The scheduler config of this option set. */
    SchedulerConfig schedulerConfig() const { return *this; }

    /** Build the diagnostic-engine options for this option set. */
    lint::LintOptions lintOptions() const;

    /**
     * Reject out-of-range option values for @p circuit with a UserError
     * instead of silently proceeding: p_threshold outside [0, 1], dead
     * vertices outside the circuit's grid, zero-qubit circuits, and a
     * non-positive code distance. Called by the driver entry points
     * (compileCircuit, BatchCompiler).
     */
    void validate(const Circuit &circuit) const;
};

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_OPTIONS_HPP
