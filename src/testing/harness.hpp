/**
 * @file
 * Fuzz harness driver: expand a seed block into cases, run the
 * differential oracle (plus the static-analysis lint oracle) on each,
 * interleave batch-determinism and degenerate-lattice checks on fixed
 * strides, and shrink every failing circuit to a minimal reproducer.
 *
 * The harness is deterministic given (start_seed, seeds, policy_mask,
 * strides); the wall-clock budget only decides how far through the
 * block a run gets, never what any individual case contains.
 */

#ifndef AUTOBRAID_TESTING_HARNESS_HPP
#define AUTOBRAID_TESTING_HARNESS_HPP

#include <string>
#include <vector>

#include "testing/differential.hpp"
#include "testing/shrinker.hpp"

namespace autobraid {
namespace fuzz {

/** Harness configuration. */
struct FuzzOptions
{
    uint64_t start_seed = 1;
    int seeds = 100;           ///< cases to run from start_seed
    double budget_seconds = 0; ///< wall-clock cap; 0 = unlimited
    unsigned policy_mask = kMaskAll;

    /** Backend every differential case compiles under. */
    SchedulerBackend backend = SchedulerBackend::Braiding;

    int batch_stride = 8;      ///< batch-determinism every Nth case (0=off)
    int degenerate_stride = 16; ///< strip-grid case every Nth seed (0=off)

    /**
     * Route-jobs determinism every Nth case (0 = off): compile with
     * route_jobs 1 and 8 and require byte-identical schedules
     * (component-parallel routing's core contract).
     */
    int route_jobs_stride = 8;

    bool lint_oracle = true;   ///< run the static-analysis oracle
    bool shrink = true;        ///< shrink failing circuits
    ShrinkOptions shrink_options;
};

/** One failing seed with its (possibly shrunken) reproducer. */
struct FuzzFailure
{
    uint64_t seed = 0;
    std::vector<std::string> failures;
    Circuit reproducer{2, "repro"};
    size_t original_gates = 0; ///< gates before shrinking
};

/** Aggregate outcome of one harness run. */
struct FuzzSummary
{
    int cases = 0;             ///< differential cases completed
    int degenerate_cases = 0;
    int batch_checks = 0;
    int route_jobs_checks = 0;

    double seconds = 0;
    bool budget_exhausted = false;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }

    /** Human-readable run summary incl. every failure. */
    std::string toString() const;
};

/** Run the harness over @p opt's seed block. */
FuzzSummary runFuzz(const FuzzOptions &opt);

} // namespace fuzz
} // namespace autobraid

#endif // AUTOBRAID_TESTING_HARNESS_HPP
