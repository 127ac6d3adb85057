/**
 * @file
 * autobraid_fuzz — differential fuzzer for the braid compiler.
 *
 * Expands a block of seeds into random circuits and compiles each one
 * under every selected scheduler policy, cross-checking the schedules
 * with the independent certifier (analysis/certify), the
 * retired-gate/critical-path invariants, batch jobs=1-vs-N
 * determinism, degenerate strip lattices, and the static-analysis
 * lint oracle (lint never crashes; the channel-capacity bound stays
 * below the achieved makespan). Every valid schedule is certified in
 * memory and again through the versioned text export
 * (autobraid-schedule v1); both certificates must be clean and
 * byte-identical. Failing seeds are shrunk to minimal reproducers.
 *
 *   autobraid_fuzz [options]
 *
 *     --seeds=N             number of seeds to run (default 100)
 *     --start-seed=S        first seed of the block (default 1)
 *     --budget-seconds=F    stop starting new cases after F seconds
 *                           (default 0 = unlimited)
 *     --policy-mask=M       policies to cross-check: a number (1=
 *                           baseline, 2=sp, 4=full, 7=all) or names
 *                           like "baseline,sp,full" (default all)
 *     --backend=B           communication backend for every case:
 *                           braiding (default) or surgery
 *     --batch-stride=N      batch-determinism check every Nth case
 *                           (default 8; 0 disables)
 *     --route-jobs-stride=N route-jobs determinism check (schedules
 *                           byte-identical for route_jobs 1 vs 8)
 *                           every Nth case (default 8; 0 disables)
 *     --degenerate-stride=N strip-lattice case every Nth seed
 *                           (default 16; 0 disables)
 *     --no-lint-oracle      skip the static-analysis lint oracle
 *     --no-shrink           keep failing circuits unshrunk
 *     --repro-out=FILE      write the first failure's shrunken
 *                           reproducer as OpenQASM
 *     --record-out=FILE     compile the first failure's shrunken
 *                           reproducer with the flight recorder and
 *                           write the recording JSON, so failures
 *                           ship with their schedule timeline
 *                           (tools/autobraid_inspect)
 *     --metrics-out=FILE    write fuzz telemetry metrics as JSON
 *
 * Every --key=value option also accepts the two-token "--key value"
 * form. Exit status: 0 all checks passed, 1 failures found, 2 usage
 * error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "compiler/driver.hpp"
#include "qasm/exporter.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/harness.hpp"

using namespace autobraid;

namespace {

struct CliOptions
{
    fuzz::FuzzOptions fuzz;
    std::string repro_out;
    std::string record_out;
    std::string metrics_out;
};

void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: autobraid_fuzz [options]\n"
        "  --seeds=N --start-seed=S --budget-seconds=F\n"
        "  --policy-mask=M   number (1=baseline 2=sp 4=full 7=all)\n"
        "                    or names: baseline,sp,full,all\n"
        "  --backend=B       braiding (default) or surgery\n"
        "  --batch-stride=N --degenerate-stride=N\n"
        "  --route-jobs-stride=N\n"
        "  --no-lint-oracle --no-shrink\n"
        "  --repro-out=FILE  first failure's reproducer as OpenQASM\n"
        "  --record-out=FILE first failure's flight recording JSON\n"
        "  --metrics-out=FILE  fuzz telemetry metrics as JSON\n"
        "Options also accept the two-token \"--key value\" form.\n");
    std::exit(code);
}

/** Match --key=value, or --key with the value in the next argv slot. */
bool
matchValue(int argc, char **argv, int &i, const char *key,
           std::string &value)
{
    const char *arg = argv[i];
    const size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) != 0)
        return false;
    if (arg[len] == '=') {
        value = arg + len + 1;
        return true;
    }
    if (arg[len] == '\0') {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", key);
            usage(2);
        }
        value = argv[++i];
        return true;
    }
    return false;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (matchValue(argc, argv, i, "--seeds", value)) {
            // Checked parses throw UserError on garbage, trailing
            // junk, or out-of-range values; main() maps that to the
            // documented usage exit code 2.
            opts.fuzz.seeds = parseCheckedIntFlag(
                value, "--seeds", 1, 100'000'000);
        } else if (matchValue(argc, argv, i, "--start-seed", value)) {
            opts.fuzz.start_seed =
                parseCheckedUInt(value, "--start-seed");
        } else if (matchValue(argc, argv, i, "--budget-seconds",
                              value)) {
            opts.fuzz.budget_seconds = parseCheckedDouble(
                value, "--budget-seconds", 0.0, 1e9);
        } else if (matchValue(argc, argv, i, "--policy-mask", value)) {
            opts.fuzz.policy_mask = fuzz::parsePolicyMask(value);
        } else if (matchValue(argc, argv, i, "--backend", value)) {
            opts.fuzz.backend = parseBackendName(value);
        } else if (matchValue(argc, argv, i, "--batch-stride",
                              value)) {
            opts.fuzz.batch_stride = parseCheckedIntFlag(
                value, "--batch-stride", 0, 1'000'000);
        } else if (matchValue(argc, argv, i, "--route-jobs-stride",
                              value)) {
            opts.fuzz.route_jobs_stride = parseCheckedIntFlag(
                value, "--route-jobs-stride", 0, 1'000'000);
        } else if (matchValue(argc, argv, i, "--degenerate-stride",
                              value)) {
            opts.fuzz.degenerate_stride = parseCheckedIntFlag(
                value, "--degenerate-stride", 0, 1'000'000);
        } else if (std::strcmp(arg, "--no-lint-oracle") == 0) {
            opts.fuzz.lint_oracle = false;
        } else if (std::strcmp(arg, "--no-shrink") == 0) {
            opts.fuzz.shrink = false;
        } else if (matchValue(argc, argv, i, "--repro-out", value)) {
            opts.repro_out = value;
        } else if (matchValue(argc, argv, i, "--record-out", value)) {
            opts.record_out = value;
        } else if (matchValue(argc, argv, i, "--metrics-out", value)) {
            opts.metrics_out = value;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg);
            usage(2);
        }
    }
    if (opts.fuzz.seeds <= 0) {
        std::fprintf(stderr, "--seeds must be positive\n");
        usage(2);
    }
    return opts;
}

int
run(const CliOptions &opts)
{
    std::printf("fuzzing %d seeds from %llu (policies: %s, "
                "backend: %s)\n",
                opts.fuzz.seeds,
                static_cast<unsigned long long>(opts.fuzz.start_seed),
                fuzz::policyMaskName(opts.fuzz.policy_mask).c_str(),
                backendName(opts.fuzz.backend));

    // One telemetry sink for the whole run; installed only when the
    // caller asked for metrics so default runs stay zero-overhead.
    telemetry::TelemetryOptions topt;
    topt.enabled = !opts.metrics_out.empty();
    topt.spans = false;
    telemetry::Telemetry sink(topt);
    fuzz::FuzzSummary summary;
    {
        telemetry::TelemetryScope scope(
            topt.enabled ? &sink : nullptr);
        summary = fuzz::runFuzz(opts.fuzz);
    }

    std::printf("%s\n", summary.toString().c_str());
    if (!opts.metrics_out.empty())
        writeTextFile(opts.metrics_out,
                      sink.metrics().toJson() + "\n");
    if (!summary.failures.empty() && !opts.repro_out.empty()) {
        const fuzz::FuzzFailure &first = summary.failures.front();
        qasm::writeQasmFile(first.reproducer, opts.repro_out);
        std::printf("reproducer for seed %llu written to %s\n",
                    static_cast<unsigned long long>(first.seed),
                    opts.repro_out.c_str());
    }
    if (!summary.failures.empty() && !opts.record_out.empty()) {
        // Recompile the shrunken reproducer with the flight recorder
        // so the failure ships with its schedule timeline. A failure
        // can be a compile crash, in which case there is no recording
        // to attach — report that instead of masking the fuzz result.
        const fuzz::FuzzFailure &first = summary.failures.front();
        try {
            CompileOptions opt;
            opt.backend = opts.fuzz.backend;
            opt.record_lifecycle = true;
            const CompileReport report =
                compileCircuit(first.reproducer, opt);
            if (report.result.recording) {
                writeTextFile(opts.record_out,
                              report.result.recording->toJson());
                std::printf(
                    "flight recording for seed %llu written to %s\n",
                    static_cast<unsigned long long>(first.seed),
                    opts.record_out.c_str());
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "no flight recording: reproducer compile "
                         "threw: %s\n",
                         e.what());
        }
    }
    return summary.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const UserError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 2;
    }
}
