/**
 * @file
 * autobraid_lint — standalone static-analysis driver.
 *
 * Lints OpenQASM 2.0 files or built-in benchmark specs without
 * scheduling them: the AST-level lints run on the parsed program
 * (with real source locations), the circuit lints on the elaborated
 * gate list (with per-gate provenance), and the layout/LLG lints
 * against the grid and a seeded initial placement. All inputs share
 * one DiagnosticEngine, so --sarif-out produces a single SARIF run
 * covering the whole invocation.
 *
 *   autobraid_lint [options] <spec-or-file>...
 *
 *     --level=errors|warnings|all  minimum severity kept (default all)
 *     --suppress=CODES             comma-separated diagnostic codes
 *                                  (AB101) or families (AB1xx)
 *     --werror                     promote warnings to errors
 *     --sarif-out=FILE             write SARIF 2.1.0 JSON ("-" =
 *                                  stdout)
 *     --metrics-out=FILE           write the telemetry metrics
 *                                  registry as JSON, aggregated over
 *                                  all inputs (shared exporter with
 *                                  autobraid_cli / autobraid_fuzz)
 *     --policy=baseline|sp|full    placement policy (default full)
 *     --distance=D                 code distance (default 33)
 *     --teleport=HOLD              teleport-style channel hold cycles
 *     --seed=S                     placement seed
 *     --defects=N                  inject N random dead vertices
 *     --dead=V1,V2,...             mark exact vertex ids dead (raw,
 *                                  unlike --defects: invariant-
 *                                  violating sets are the point —
 *                                  this is how AB201/AB203 trigger)
 *     --fix                        apply attached mechanical fixes
 *                                  (AB103/AB104 unused decls, AB106
 *                                  adjacent self-inverse pairs) to the
 *                                  QASM files in place; idempotent
 *     --quiet                      suppress the text report
 *     --list                       list the diagnostic catalog
 *
 * Exit status (shared across all autobraid tools): 0 = no error-level
 * diagnostics, 1 = errors (including warnings promoted by --werror),
 * 2 = bad usage, or an input that does not parse or elaborate (its
 * AST diagnostics are still reported).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/fixit.hpp"
#include "analysis/lint.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "telemetry/telemetry.hpp"
#include "compiler/options.hpp"
#include "gen/registry.hpp"
#include "lattice/defects.hpp"
#include "place/initial.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/parser.hpp"

using namespace autobraid;

namespace {

struct LintCliOptions
{
    /**
     * The lint level, suppressions and werror, plus the policy,
     * distance, teleport and seed that shape the layout lints.
     */
    CompileOptions compile;
    int defects = 0;
    std::vector<VertexId> dead;
    bool quiet = false;
    bool fix = false;
    std::string sarif_out;
    std::string metrics_out;
    std::vector<std::string> inputs;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: autobraid_lint [options] <spec-or-file>...\n"
        "  --level=errors|warnings|all  --suppress=CODES  --werror\n"
        "  --sarif-out=FILE  --metrics-out=FILE\n"
        "  --policy=baseline|sp|full  --distance=D\n"
        "  --teleport=HOLD  --seed=S  --defects=N  --dead=V1,V2,...\n"
        "  --fix  --quiet  --list\n");
    std::exit(code);
}

/** True for the four compile-option flags the lint takes. */
bool
lintOptionFlag(const char *arg)
{
    for (const char *flag :
         {"--policy=", "--distance=", "--teleport=", "--seed="})
        if (std::strncmp(arg, flag, std::strlen(flag)) == 0)
            return true;
    return false;
}

LintCliOptions
parseArgs(int argc, char **argv)
{
    LintCliOptions opts;
    opts.compile.lint.level = lint::LintLevel::All; // --level's default
    // parseArgs runs outside main's try block, so checked-parse,
    // option and range rejections (UserError) are reported here
    // instead of propagating.
    try {
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (std::strcmp(arg, "--list") == 0) {
            std::printf("diagnostic catalog:\n");
            for (const lint::DiagInfo &info :
                 lint::diagnosticCatalog())
                std::printf("  %s  %-7s  %s\n", info.code,
                            lint::severityName(info.severity),
                            info.summary);
            std::exit(0);
        } else if (matchValue(arg, "--level", value)) {
            lint::LintLevel &level = opts.compile.lint.level;
            if (value == "errors")
                level = lint::LintLevel::Errors;
            else if (value == "warnings")
                level = lint::LintLevel::Warnings;
            else if (value == "all")
                level = lint::LintLevel::All;
            else
                usage(2);
        } else if (matchValue(arg, "--suppress", value)) {
            for (const std::string &code : split(value, ','))
                opts.compile.lint.suppressions.push_back(code);
        } else if (std::strcmp(arg, "--werror") == 0 ||
                   std::strcmp(arg, "--lint-werror") == 0) {
            opts.compile.lint.werror = true;
        } else if (matchValue(arg, "--sarif-out", value)) {
            opts.sarif_out = value;
        } else if (matchValue(arg, "--metrics-out", value)) {
            opts.metrics_out = value;
        } else if (lintOptionFlag(arg) &&
                   setOptionFlag(opts.compile, arg)) {
            // Range-checked by validate() below.
        } else if (matchValue(arg, "--defects", value)) {
            opts.defects = parseCheckedIntFlag(value, "--defects", 0,
                                               1'000'000);
        } else if (matchValue(arg, "--dead", value)) {
            for (const std::string &v : split(value, ','))
                opts.dead.push_back(static_cast<VertexId>(
                    parseCheckedUInt(v, "--dead", 0xffffffffULL)));
        } else if (std::strcmp(arg, "--fix") == 0) {
            opts.fix = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            opts.quiet = true;
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
    return opts;
}

bool
isQasmPath(const std::string &input)
{
    return input.find(".qasm") != std::string::npos ||
           input.find('/') != std::string::npos;
}

/** Lint one input into @p engine; false on a hard input failure. */
bool
lintInput(const LintCliOptions &opts, const std::string &input,
          lint::DiagnosticEngine &engine)
{
    Circuit circuit(1);
    lint::GateProvenance prov;
    const lint::GateProvenance *prov_ptr = nullptr;
    std::vector<GateIdx> reset_gates;

    if (isQasmPath(input)) {
        const qasm::Program program = qasm::parseFile(input);
        lint::runProgramAnalyses(program, engine, input);
        // Elaboration can reject what the AST lints already flagged
        // (e.g. AB105 width mismatches); keep those diagnostics, skip
        // the circuit-level families for this input, and fail it as
        // autobraid_cli would.
        try {
            qasm::ElaboratedCircuit ec =
                qasm::elaborateWithLines(program, input);
            circuit = std::move(ec.circuit);
            prov.file = input;
            prov.lines = std::move(ec.gate_lines);
            prov_ptr = &prov;
            reset_gates = std::move(ec.reset_gates);
        } catch (const UserError &e) {
            std::fprintf(stderr, "%s: not elaborated: %s\n",
                         input.c_str(), e.what());
            return false;
        }
    } else {
        circuit = gen::make(input);
    }

    const Grid grid = Grid::forQubits(circuit.numQubits());
    // --dead is deliberately raw: DefectMap::random only produces
    // invariant-respecting sets, so the structural layout lints
    // (AB201/AB203) can only ever fire on an explicit list.
    std::vector<VertexId> dead = opts.dead;
    if (opts.defects > 0) {
        Rng defect_rng(opts.compile.seed ^ 0xdefecu);
        for (VertexId v :
             DefectMap::random(grid, opts.defects, defect_rng)
                 .deadVertices())
            dead.push_back(v);
    }

    Rng rng(opts.compile.seed);
    const Placement placement = initialPlacement(
        circuit, grid, rng,
        opts.compile.placementFor(opts.compile.policy));

    lint::LintRunConfig run;
    run.hold = lint::effectiveHold(opts.compile.cost,
                                   opts.compile.channel_hold_cycles);
    run.reset_gates = &reset_gates;
    lint::runCircuitAnalyses(circuit, grid, dead, &placement, engine,
                             prov_ptr, run);
    return true;
}

/** Apply the engine's attached fixes to every linted QASM file. */
void
applyFixesInPlace(const LintCliOptions &opts,
                  const lint::DiagnosticEngine &engine)
{
    for (const std::string &input : opts.inputs) {
        if (!isQasmPath(input))
            continue;
        const std::vector<lint::FixReplacement> fixes =
            lint::collectFixesForFile(engine.diagnostics(), input);
        if (fixes.empty())
            continue;
        const lint::FixResult result =
            lint::applyFixes(readTextFile(input), fixes);
        if (result.changed)
            writeTextFile(input, result.text);
        std::fprintf(stderr,
                     "%s: %zu fix(es) applied, %zu skipped\n",
                     input.c_str(), result.applied, result.skipped);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const LintCliOptions opts = parseArgs(argc, argv);
    lint::DiagnosticEngine engine(opts.compile.lint);
    // One telemetry sink for the whole run; installed only when the
    // caller asked for metrics so default runs stay zero-overhead
    // (the same exporter path as autobraid_cli / autobraid_fuzz).
    telemetry::TelemetryOptions topt;
    topt.enabled = !opts.metrics_out.empty();
    topt.spans = false;
    telemetry::Telemetry sink(topt);
    bool input_failed = false;
    {
        telemetry::TelemetryScope scope(topt.enabled ? &sink
                                                     : nullptr);
        for (const std::string &input : opts.inputs) {
            try {
                if (!lintInput(opts, input, engine))
                    input_failed = true;
            } catch (const Error &e) {
                std::fprintf(stderr, "error: %s: %s\n",
                             input.c_str(), e.what());
                input_failed = true;
            }
        }
    }

    if (!opts.quiet) {
        const std::string text = engine.toText();
        if (!text.empty())
            std::fputs(text.c_str(), stdout);
    }
    if (opts.fix) {
        try {
            applyFixesInPlace(opts, engine);
        } catch (const Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    if (!opts.sarif_out.empty()) {
        const std::string sarif = engine.toSarif() + "\n";
        try {
            if (opts.sarif_out == "-")
                std::fputs(sarif.c_str(), stdout);
            else
                writeTextFile(opts.sarif_out, sarif);
        } catch (const Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    if (!opts.metrics_out.empty()) {
        try {
            writeTextFile(opts.metrics_out,
                          sink.metrics().toJson() + "\n");
        } catch (const Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    // Shared tool convention: 2 = the input itself failed to parse,
    // 1 = the analyses found error-level problems with valid input.
    if (input_failed)
        return 2;
    return engine.hasErrors() ? 1 : 0;
}
