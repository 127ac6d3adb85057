#include "testing/harness.hpp"

#include <algorithm>
#include <chrono>

#include "common/text.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace fuzz {

std::string
FuzzSummary::toString() const
{
    std::string out = strformat(
        "fuzz: %d cases, %d degenerate, %d batch checks, %d "
        "route-jobs checks, %zu failing seeds in %.1fs%s",
        cases, degenerate_cases, batch_checks, route_jobs_checks,
        failures.size(), seconds,
        budget_exhausted ? " (budget exhausted)" : "");
    for (const FuzzFailure &f : failures) {
        out += strformat("\nseed %llu (reproducer %zu of %zu gates):",
                         static_cast<unsigned long long>(f.seed),
                         f.reproducer.size(), f.original_gates);
        for (const std::string &msg : f.failures)
            out += "\n  " + msg;
    }
    return out;
}

namespace {

/** Shrink a failing case, keeping its options but swapping circuits. */
FuzzFailure
makeFailure(const FuzzCase &c, std::vector<std::string> failures,
            const FuzzOptions &opt)
{
    FuzzFailure out;
    out.seed = c.seed;
    out.failures = std::move(failures);
    out.original_gates = c.circuit.size();
    out.reproducer = c.circuit;
    if (!opt.shrink)
        return out;
    FuzzCase probe = c;
    auto stillFails = [&probe, &opt](const Circuit &candidate) {
        probe.circuit = candidate;
        return !runDifferentialCase(probe, opt.policy_mask,
                                    opt.lint_oracle)
                    .ok;
    };
    const ShrinkOutcome shrunk =
        shrinkCircuit(c.circuit, stillFails, opt.shrink_options);
    out.reproducer = shrunk.circuit;
    return out;
}

} // namespace

FuzzSummary
runFuzz(const FuzzOptions &opt)
{
    AUTOBRAID_SPAN("fuzz.run");
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    FuzzSummary summary;
    for (int i = 0; i < opt.seeds; ++i) {
        if (opt.budget_seconds > 0 && elapsed() > opt.budget_seconds) {
            summary.budget_exhausted = true;
            break;
        }
        const uint64_t seed = opt.start_seed + static_cast<uint64_t>(i);
        AUTOBRAID_SPAN("fuzz.case");
        FuzzCase c = makeFuzzCase(seed);
        c.options.backend = opt.backend;
        DifferentialResult diff =
            runDifferentialCase(c, opt.policy_mask, opt.lint_oracle);
        ++summary.cases;
        AUTOBRAID_COUNT("fuzz.cases");

        if (diff.ok && opt.batch_stride > 0 &&
            i % opt.batch_stride == 0) {
            auto batch = checkBatchDeterminism(c, opt.policy_mask);
            ++summary.batch_checks;
            diff.failures.insert(diff.failures.end(), batch.begin(),
                                 batch.end());
            diff.ok = diff.failures.empty();
        }
        if (diff.ok && opt.route_jobs_stride > 0 &&
            i % opt.route_jobs_stride == 0) {
            auto jobs = checkRouteJobsDeterminism(c, opt.policy_mask);
            ++summary.route_jobs_checks;
            diff.failures.insert(diff.failures.end(), jobs.begin(),
                                 jobs.end());
            diff.ok = diff.failures.empty();
        }
        if (!diff.ok)
            summary.failures.push_back(
                makeFailure(c, std::move(diff.failures), opt));

        if (opt.degenerate_stride > 0 &&
            i % opt.degenerate_stride == 0) {
            const DifferentialResult degen = runDegenerateGridCase(
                seed, opt.policy_mask, opt.backend);
            ++summary.degenerate_cases;
            if (!degen.ok) {
                // Strip-grid cases bypass the pipeline, so there is no
                // replayable FuzzCase to shrink; report the seed as-is.
                FuzzFailure f;
                f.seed = seed;
                f.failures = degen.failures;
                summary.failures.push_back(std::move(f));
            }
        }
    }
    summary.seconds = elapsed();
    if (summary.seconds > 0)
        AUTOBRAID_GAUGE("fuzz.cases_per_second",
                        static_cast<double>(summary.cases) /
                            summary.seconds);
    AUTOBRAID_COUNT("fuzz.failing_seeds",
                    static_cast<long long>(summary.failures.size()));
    return summary;
}

} // namespace fuzz
} // namespace autobraid
