/**
 * @file
 * autobraid — command-line braid compiler.
 *
 * Compiles OpenQASM 2.0 files or built-in benchmark specs into braid
 * schedules and reports the metrics the paper evaluates.
 *
 *   autobraid_cli [options] <spec-or-file>...
 *
 *     --policy=baseline|sp|full   scheduling policy (default full)
 *     --backend=braiding|surgery  communication backend: braid paths
 *                                 (default) or lattice-surgery merge
 *                                 regions
 *     --distance=D                code distance (default 33)
 *     --p=F                       layout-optimizer trigger (default 0.3)
 *     --seed=S                    placement seed
 *     --no-maslov                 disable the swap-network mode
 *     --defects=N                 inject N random dead vertices
 *     --teleport=HOLD             teleport-style channels: release each
 *                                 braid channel HOLD cycles after start
 *     --compare                   run all three policies
 *     --sweep-p                   run the Fig. 18 style p sweep
 *     --jobs=N                    batch-compile the inputs over N
 *                                 worker threads (BatchCompiler)
 *     --route-jobs=N              component-parallel routing threads
 *                                 inside each compile (byte-identical
 *                                 schedules for any N)
 *     --timings                   print per-pass wall times
 *     --json                      emit a JSON report (no trace; the
 *                                 schedule is --schedule-out's job)
 *     --trace-out=FILE            write a Chrome trace-event JSON file
 *                                 (load it in Perfetto; single input)
 *     --record-out=FILE           write the scheduler flight recording
 *                                 (per-gate lifecycle, stall causes,
 *                                 congestion heatmap) as JSON for
 *                                 autobraid_inspect (single input)
 *     --schedule-out=FILE         write the autobraid-schedule v1 JSON
 *                                 export (per-gate windows, paths,
 *                                 layout) for autobraid_certify
 *                                 (single input; implies the trace)
 *     --metrics-out=FILE          write the telemetry metrics registry
 *                                 as JSON, aggregated over all runs
 *     --draw                      ASCII placement + braid activity
 *     --stats                     print circuit statistics up front
 *     --list                      list benchmark spec families
 *     --lint                      run the static-analysis pass and
 *                                 print its diagnostics
 *     --lint-out=FILE             write lint results as SARIF 2.1.0
 *                                 JSON (single input; implies --lint)
 *     --lint-werror               promote lint warnings to errors and
 *                                 exit nonzero on any lint error
 *                                 (implies --lint)
 *     --lint-suppress=CODES       comma-separated diagnostic codes
 *                                 (AB101) or families (AB1xx) to
 *                                 suppress
 *
 * The option list above is mirrored by usage(); test_cli_doc checks the
 * two stay in sync.
 *
 * Arguments containing ".qasm" or '/' are treated as QASM paths, as
 * autobraid_lint treats them; anything else goes through the benchmark
 * registry ("qft:100", "im:500:3", "revlib:urf2_277", ...).
 *
 * Exit codes (shared across all autobraid tools): 0 success, 1
 * findings or compilation failure (--lint-werror errors, batch
 * failures), 2 usage or input parse errors (UserError).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/stats.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "gen/registry.hpp"
#include "place/initial.hpp"
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "qasm/elaborator.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "viz/ascii.hpp"
#include "viz/json.hpp"

using namespace autobraid;

namespace {

struct CliOptions
{
    CompileOptions compile;
    bool compare = false;
    bool sweep_p = false;
    bool json = false;
    bool draw = false;
    bool stats = false;
    bool timings = false;
    int defects = 0;
    int jobs = 1;
    std::string trace_out;
    std::string record_out;
    std::string metrics_out;
    std::string lint_out;
    std::vector<std::string> inputs;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: autobraid_cli [options] <spec-or-file>...\n"
        "  --policy=baseline|sp|full  --backend=braiding|surgery\n"
        "  --distance=D  --p=F  --seed=S\n"
        "  --no-maslov  --defects=N  --teleport=HOLD  --compare\n"
        "  --sweep-p  --jobs=N  --route-jobs=N  --timings\n"
        "  --json  --trace-out=FILE  --record-out=FILE\n"
        "  --metrics-out=FILE  --schedule-out=FILE\n"
        "  --draw  --stats  --list\n"
        "  --lint  --lint-out=FILE  --lint-werror\n"
        "  --lint-suppress=CODES\n");
    std::exit(code);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    // parseArgs runs outside main's try block; the catch at the
    // bottom reports malformed numbers, unknown names and options out
    // of range as usage errors (exit 2) instead of letting them
    // escape as uncaught exceptions.
    try {
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (std::strcmp(arg, "--list") == 0) {
            std::printf("benchmark spec examples:\n");
            for (const std::string &spec : gen::exampleSpecs())
                std::printf("  %s\n", spec.c_str());
            std::exit(0);
        } else if (setOptionFlag(opts.compile, arg)) {
            // A compile option (setOption's keys); its range is
            // checked by validate() below.
        } else if (matchValue(arg, "--defects", value)) {
            opts.defects = parseCheckedIntFlag(value, "--defects",
                                               0, 1'000'000);
        } else if (matchValue(arg, "--jobs", value)) {
            // Validated here at parse time: a negative or absurd
            // count used to be accepted silently and only fatal()ed
            // later inside BatchCompiler with a worse message.
            opts.jobs = parseCheckedIntFlag(value, "--jobs", 1,
                                            kMaxWorkerThreads);
        } else if (std::strcmp(arg, "--timings") == 0) {
            opts.timings = true;
        } else if (std::strcmp(arg, "--stats") == 0) {
            opts.stats = true;
        } else if (std::strcmp(arg, "--compare") == 0) {
            opts.compare = true;
        } else if (std::strcmp(arg, "--sweep-p") == 0) {
            opts.sweep_p = true;
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.json = true;
        } else if (matchValue(arg, "--trace-out", value)) {
            opts.trace_out = value;
        } else if (matchValue(arg, "--record-out", value)) {
            opts.record_out = value;
        } else if (matchValue(arg, "--schedule-out", value)) {
            opts.compile.schedule_out = value;
        } else if (matchValue(arg, "--metrics-out", value)) {
            opts.metrics_out = value;
        } else if (std::strcmp(arg, "--draw") == 0) {
            opts.draw = true;
        } else if (std::strcmp(arg, "--lint") == 0) {
            opts.compile.lint.level = lint::LintLevel::All;
        } else if (matchValue(arg, "--lint-out", value)) {
            opts.lint_out = value;
            if (opts.compile.lint.level == lint::LintLevel::Off)
                opts.compile.lint.level = lint::LintLevel::All;
        } else if (std::strcmp(arg, "--lint-werror") == 0) {
            opts.compile.lint.werror = true;
            if (opts.compile.lint.level == lint::LintLevel::Off)
                opts.compile.lint.level = lint::LintLevel::All;
        } else if (matchValue(arg, "--lint-suppress", value)) {
            for (const std::string &code : split(value, ','))
                opts.compile.lint.suppressions.push_back(code);
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(2);
        } else {
            opts.inputs.emplace_back(arg);
        }
    }
    opts.compile.validate();
    } catch (const UserError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage(2);
    }
    if (opts.inputs.empty())
        usage(2);
    if (!opts.trace_out.empty() &&
        (opts.inputs.size() != 1 || opts.compare || opts.sweep_p)) {
        std::fprintf(stderr, "--trace-out needs exactly one input and "
                             "no --compare/--sweep-p\n");
        usage(2);
    }
    if (!opts.record_out.empty() &&
        (opts.inputs.size() != 1 || opts.compare || opts.sweep_p)) {
        std::fprintf(stderr, "--record-out needs exactly one input "
                             "and no --compare/--sweep-p\n");
        usage(2);
    }
    if (!opts.compile.schedule_out.empty() &&
        (opts.inputs.size() != 1 || opts.compare || opts.sweep_p)) {
        std::fprintf(stderr, "--schedule-out needs exactly one input "
                             "and no --compare/--sweep-p\n");
        usage(2);
    }
    if (!opts.lint_out.empty() &&
        (opts.inputs.size() != 1 || opts.compare || opts.sweep_p)) {
        std::fprintf(stderr, "--lint-out needs exactly one input and "
                             "no --compare/--sweep-p\n");
        usage(2);
    }
    // Telemetry stays off unless an exporter asked for it, keeping the
    // default CLI path at the zero-overhead disabled baseline.
    if (!opts.trace_out.empty() || !opts.metrics_out.empty())
        opts.compile.telemetry.enabled = true;
    return opts;
}

Circuit
loadInput(const std::string &input)
{
    if (input.find(".qasm") != std::string::npos ||
        input.find('/') != std::string::npos)
        return qasm::loadCircuit(input);
    return gen::make(input);
}

void
printTimings(const CompileReport &report)
{
    std::printf("  passes:");
    for (const PassTiming &t : report.pass_timings)
        std::printf(" %s=%.4fs", t.pass.c_str(), t.seconds);
    std::printf("  (placement=%.4fs total=%.4fs)\n",
                report.placement_seconds, report.total_seconds);
}

void
printHuman(const CompileReport &report, const CostModel &cost)
{
    std::printf("%-12s %-15s qubits=%d gates=%zu grid=%dx%d\n",
                report.circuit_name.c_str(),
                policyName(report.policy), report.num_qubits,
                report.num_gates, report.grid_side,
                report.grid_side);
    std::printf("  CP        %12.0f us\n", report.cpMicros(cost));
    const char *tag = report.used_maslov ? "  [maslov]"
                      : report.backend ==
                              SchedulerBackend::LatticeSurgery
                          ? "  [surgery]"
                          : "";
    std::printf("  makespan  %12.0f us  (%.2fx CP)%s\n",
                report.micros(cost), report.cpRatio(), tag);
    std::printf("  braids=%zu swaps=%zu failures=%zu util "
                "peak=%.0f%% avg=%.0f%% compile=%.3fs\n",
                report.result.braids_routed,
                report.result.swaps_inserted,
                report.result.routing_failures,
                100 * report.result.peak_utilization,
                100 * report.result.avg_utilization,
                report.total_seconds);
}

/** Fold one report's telemetry metrics into the CLI-wide aggregate. */
void
mergeReportMetrics(telemetry::MetricsRegistry &metrics,
                   const CompileReport &report)
{
    if (report.telemetry)
        metrics.merge(report.telemetry->metrics());
}

int
runOne(const CliOptions &opts, const std::string &input,
       telemetry::MetricsRegistry &metrics)
{
    Circuit circuit = loadInput(input);
    if (opts.stats)
        std::printf("%s\n%s",
                    circuit.name().c_str(),
                    analyzeCircuit(circuit).toString().c_str());
    CompileOptions compile = opts.compile;
    compile.record_trace = opts.draw || !opts.trace_out.empty();
    compile.record_lifecycle = !opts.record_out.empty();

    if (opts.defects > 0) {
        const Grid grid = Grid::forQubits(circuit.numQubits());
        Rng rng(compile.seed ^ 0xdefecu);
        compile.dead_vertices =
            DefectMap::random(grid, opts.defects, rng)
                .deadVertices();
        std::fprintf(stderr, "injected %zu lattice defects\n",
                     compile.dead_vertices.size());
    }

    if (opts.sweep_p) {
        std::printf("%-10s %-8s %-12s %-8s\n", "p", "time(us)",
                    "normalized", "swaps");
        double p0 = 0;
        for (const auto &[p, rep] :
             sweepPThreshold(circuit, compile)) {
            const double us = rep.micros(compile.cost);
            if (p == 0.0)
                p0 = us;
            std::printf("%-10.2f %-8.0f %-12.3f %-8zu\n", p, us,
                        us / p0, rep.result.swaps_inserted);
            mergeReportMetrics(metrics, rep);
        }
        return 0;
    }

    std::vector<SchedulerPolicy> policies{compile.policy};
    if (opts.compare)
        policies = {SchedulerPolicy::Baseline,
                    SchedulerPolicy::AutobraidSP,
                    SchedulerPolicy::AutobraidFull};

    int rc = 0;
    for (SchedulerPolicy policy : policies) {
        CompileOptions o = compile;
        o.policy = policy;
        const CompileReport report = compileCircuit(circuit, o);
        mergeReportMetrics(metrics, report);
        if (report.lint) {
            // Diagnostics go to stderr so --json output stays clean.
            const std::string text = report.lint->toText();
            if (!text.empty())
                std::fprintf(stderr, "%s", text.c_str());
            if (!opts.lint_out.empty())
                writeTextFile(opts.lint_out,
                              report.lint->toSarif() + "\n");
            if (o.lint.werror && report.lint->hasErrors())
                rc = 1;
        }
        if (!opts.trace_out.empty())
            writeTextFile(
                opts.trace_out,
                telemetry::chromeTraceJson(report, o.cost) + "\n");
        if (!opts.record_out.empty()) {
            require(report.result.recording != nullptr,
                    "scheduler produced no flight recording");
            writeTextFile(opts.record_out,
                          report.result.recording->toJson());
        }
        if (opts.json) {
            std::printf("%s\n",
                        viz::reportToJson(report, o.cost).c_str());
        } else {
            printHuman(report, o.cost);
            if (opts.timings)
                printTimings(report);
        }
        if (opts.draw) {
            const Grid grid = Grid::forQubits(circuit.numQubits());
            Rng rng(o.seed);
            const Placement placement = initialPlacement(
                circuit, grid, rng, o.placementFor(policy));
            std::printf("\ninitial placement:\n%s\n",
                        viz::renderPlacement(grid, placement)
                            .c_str());
            std::printf("%s\n",
                        viz::renderActivity(report.result).c_str());
        }
    }
    return rc;
}

/**
 * Batch mode (--jobs=N with several inputs): compile everything
 * concurrently through the BatchCompiler, then print the reports in
 * input order. The per-job seeds stay exactly as configured
 * (derive_seeds = false) so batch output matches N sequential runs.
 */
int
runBatch(const CliOptions &opts)
{
    BatchOptions batch_opts;
    batch_opts.threads = opts.jobs;
    batch_opts.derive_seeds = false;
    BatchCompiler batch(batch_opts);
    for (const std::string &input : opts.inputs)
        batch.add(loadInput(input), opts.compile, input);

    const std::vector<BatchResult> results = batch.compileAll();
    if (!opts.metrics_out.empty())
        writeTextFile(opts.metrics_out,
                      aggregateMetrics(results).toJson() + "\n");
    int rc = 0;
    for (const BatchResult &res : results) {
        if (!res.ok) {
            std::fprintf(stderr, "error: %s: %s\n",
                         res.label.c_str(), res.error.c_str());
            rc = 1;
            continue;
        }
        if (res.report.lint) {
            const std::string text = res.report.lint->toText();
            if (!text.empty())
                std::fprintf(stderr, "%s: %s", res.label.c_str(),
                             text.c_str());
            if (opts.compile.lint.werror &&
                res.report.lint->hasErrors())
                rc = 1;
        }
        if (opts.json) {
            std::printf(
                "%s\n",
                viz::reportToJson(res.report, opts.compile.cost).c_str());
        } else {
            printHuman(res.report, opts.compile.cost);
            if (opts.timings)
                printTimings(res.report);
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opts = parseArgs(argc, argv);
    const bool batchable = opts.jobs > 1 && opts.inputs.size() > 1 &&
                           !opts.sweep_p && !opts.compare &&
                           !opts.draw && !opts.stats &&
                           opts.defects == 0;
    if (batchable) {
        try {
            return runBatch(opts);
        } catch (const UserError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        } catch (const Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    telemetry::MetricsRegistry metrics;
    for (const std::string &input : opts.inputs) {
        try {
            const int rc = runOne(opts, input, metrics);
            if (rc != 0)
                return rc;
        } catch (const UserError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        } catch (const Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    if (!opts.metrics_out.empty()) {
        try {
            writeTextFile(opts.metrics_out, metrics.toJson() + "\n");
        } catch (const Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    return 0;
}
