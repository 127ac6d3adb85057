#include "compiler/batch.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "common/error.hpp"
#include "common/join_guard.hpp"
#include "gen/registry.hpp"

namespace autobraid {
namespace {

/** Base seed the per-job seeds are derived from. */
constexpr uint64_t kBaseSeed = 2021;

} // namespace

uint64_t
deriveJobSeed(uint64_t base_seed, size_t job_index)
{
    // splitmix64: a full-period mixer, so neighbouring job indices get
    // statistically independent placement seeds.
    uint64_t z = base_seed ^
                 (static_cast<uint64_t>(job_index) +
                  0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

telemetry::MetricsRegistry
aggregateMetrics(const std::vector<BatchResult> &results)
{
    telemetry::MetricsRegistry merged;
    for (const BatchResult &res : results)
        if (res.ok && res.report.telemetry)
            merged.merge(res.report.telemetry->metrics());
    return merged;
}

BatchCompiler::BatchCompiler(BatchOptions options)
    : options_(options)
{
    if (options_.threads < 0 || options_.threads > kMaxWorkerThreads)
        fatal("BatchCompiler: thread count must be in [0, %d], "
              "got %d",
              kMaxWorkerThreads, options_.threads);
}

size_t
BatchCompiler::add(Circuit circuit, CompileOptions options,
                   std::string label)
{
    const size_t index = jobs_.size();
    if (options_.derive_seeds)
        options.seed = deriveJobSeed(kBaseSeed, index);
    if (label.empty())
        label = circuit.name();
    jobs_.push_back(
        BatchJob{std::move(label), std::move(circuit), options});
    return index;
}

size_t
BatchCompiler::addSpec(const std::string &spec, CompileOptions options)
{
    return add(gen::make(spec), options, spec);
}

int
BatchCompiler::threadCount() const
{
    int threads = options_.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    return threads;
}

std::vector<BatchResult>
BatchCompiler::compileAll()
{
    std::vector<BatchJob> jobs = std::move(jobs_);
    jobs_.clear();

    std::vector<BatchResult> results(jobs.size());
    std::atomic<size_t> next{0};

    auto worker = [&jobs, &results, &next]() {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            BatchResult &res = results[i];
            res.label = jobs[i].label;
            try {
                res.report = compileCircuit(jobs[i].circuit,
                                            jobs[i].options);
                res.ok = true;
            } catch (const std::exception &e) {
                res.error = e.what();
            } catch (...) {
                // A non-std throw used to escape the worker and
                // std::terminate the whole batch; synthesize an
                // error string instead so the job fails alone.
                res.error = "non-standard exception during compile";
            }
        }
    };

    const size_t pool = std::min(static_cast<size_t>(threadCount()),
                                 jobs.size());
    if (pool <= 1) {
        worker();
        return results;
    }
    // If emplace_back throws mid-spawn (thread-resource exhaustion),
    // the guard still joins the threads already running.
    JoinGuard guard;
    guard.threads.reserve(pool);
    for (size_t t = 0; t < pool; ++t)
        guard.threads.emplace_back(worker);
    guard.join();
    return results;
}

} // namespace autobraid
