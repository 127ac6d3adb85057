/**
 * @file
 * User-facing compilation options for the compiler driver.
 *
 * CompileOptions is the one knob surface shared by the CLI, the bench
 * harness, the examples, and the BatchCompiler. The options users set
 * from outside the program go through one setter, setOption(), and one
 * range check, validate(); the driver validates again at its entry
 * point so that every stage downstream can assume a sane
 * configuration.
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

namespace json {
class Value;
}

/**
 * Upper bound on any worker-pool size in the repo (BatchCompiler
 * threads, CLI --jobs, the route_jobs option, serve daemon --workers).
 * Keeps a mistyped flag from spawning an absurd number of threads.
 */
constexpr int kMaxWorkerThreads = 512;

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
     * Static analysis. Level Off (the default) skips the lint and
     * schedule-lint stages entirely; any other level runs them and
     * surfaces their diagnostics as CompileReport::lint. Suppressions
     * are validated against the catalog by validate().
     */
    lint::LintOptions lint{lint::LintLevel::Off, {}, false};

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

    /**
     * Reject an option outside its one range with a UserError naming
     * it: distance in [1, 9999], p in [0, 1] (NaN too), teleport in
     * [0, 10^9], route_jobs in [1, kMaxWorkerThreads], and every lint
     * suppression a diagnostic code or family of the catalog. The seed
     * is unbounded here, since the BatchCompiler derives 64-bit seeds.
     * The front ends call this right after parsing, so a bad option
     * fails before any circuit is built, and with the same exit code
     * whether the compiles then run in a batch or not.
     */
    void validate() const;

    /**
     * validate(), then reject what only @p circuit can show: a
     * zero-qubit circuit and dead vertices outside its grid. Called by
     * compileCircuit, so every compile (batch and serve jobs included)
     * passes through it.
     */
    void validate(const Circuit &circuit) const;
};

/**
 * Set the option @p key of @p options to @p value. This is the one
 * place that names the options users set from outside the program and
 * their JSON types: `policy` and `backend` are strings; `distance`,
 * `p`, `seed`, `teleport` and `route_jobs` are numbers; `maslov` is a
 * bool. Returns false, changing nothing, when @p key names no option.
 * Raises UserError naming the option when @p value has the wrong type
 * or is a number the option cannot hold: integer options take only
 * integers, and `seed` only those a JSON number carries exactly,
 * [0, 2^53 - 1]. The other ranges are validate()'s.
 */
bool setOption(CompileOptions &options, const std::string &key,
               const json::Value &value);

/**
 * setOption() for one command-line argument: `--route-jobs=4` is
 * (route_jobs, 4) and `--no-maslov` is (maslov, false). A value is a
 * number when json::parse reads the whole of it as one, else a
 * string, so `--distance=0x10` is rejected rather than read as 16.
 * Returns false when @p arg names no option.
 */
bool setOptionFlag(CompileOptions &options, const char *arg);

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_OPTIONS_HPP
