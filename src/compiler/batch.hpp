/**
 * @file
 * BatchCompiler — multi-threaded batch front-end over the driver.
 *
 * Compiles N independent jobs concurrently over a fixed pool of worker
 * threads. Jobs are pulled from a shared queue, but results land in
 * input order and every job's seed is derived deterministically from
 * the batch base seed and the job's index — so the same batch produces
 * byte-identical reports (metricsSummary) whether it runs on 1 thread
 * or 8. Per-job errors are captured, not thrown: one malformed circuit
 * cannot take down the batch.
 */

#ifndef AUTOBRAID_COMPILER_BATCH_HPP
#define AUTOBRAID_COMPILER_BATCH_HPP

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "compiler/driver.hpp"

namespace autobraid {

/** Batch-wide settings. */
struct BatchOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int threads = 0;

    /**
     * Derive each job's seed from the fixed batch base seed and the
     * job index (deriveJobSeed). false uses each job's own
     * CompileOptions::seed untouched.
     */
    bool derive_seeds = true;
};

/** One queued compilation. */
struct BatchJob
{
    std::string label;       ///< spec or caller-chosen name
    Circuit circuit;
    CompileOptions options;  ///< seed overwritten when derive_seeds
};

/** Outcome of one job (ok == false carries the error text). */
struct BatchResult
{
    std::string label;
    bool ok = false;
    CompileReport report;
    std::string error;
};

/** Deterministic per-job seed: splitmix64(base ^ index). */
uint64_t deriveJobSeed(uint64_t base_seed, size_t job_index);

/**
 * Merge every successful job's telemetry metrics into one registry,
 * in input order — so the aggregate is byte-identical no matter how
 * many worker threads compiled the batch. Jobs without telemetry
 * contribute nothing.
 */
telemetry::MetricsRegistry aggregateMetrics(
    const std::vector<BatchResult> &results);

/** Compiles a set of circuits concurrently over a thread pool. */
class BatchCompiler
{
  public:
    explicit BatchCompiler(BatchOptions options = {});

    /** Queue @p circuit under @p label. Returns the job index. */
    size_t add(Circuit circuit, CompileOptions options = {},
               std::string label = "");

    /**
     * Queue a benchmark-registry spec ("qft:100", "im:500:3", ...).
     * The circuit is built immediately; a bad spec throws here, not in
     * the workers.
     */
    size_t addSpec(const std::string &spec,
                   CompileOptions options = {});

    size_t jobCount() const { return jobs_.size(); }

    /** Effective worker count for this batch. */
    int threadCount() const;

    /**
     * Compile every queued job and return results in input order.
     * The queue is consumed; the compiler can be refilled afterwards.
     */
    std::vector<BatchResult> compileAll();

  private:
    BatchOptions options_;
    std::vector<BatchJob> jobs_;
};

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_BATCH_HPP
