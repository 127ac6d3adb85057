/**
 * @file
 * Telemetry metrics registry: counters, gauges, fixed-bucket histograms.
 *
 * The registry is the *non-deterministic-safe* side of instrumentation:
 * it may be fed from any layer (router, scheduler, annealer) through the
 * thread-local sink in telemetry/telemetry.hpp, and it is kept strictly
 * separate from CompileReport::counters so the byte-identical
 * metricsSummary() guarantee survives telemetry being switched on.
 * Every observed *value* is deterministic (path lengths, node
 * expansions, acceptance ratios); wall-clock only ever lives in the
 * span tracer, never here. All operations are thread-safe; merge() is
 * order-dependent only for gauges (last write wins), so the
 * BatchCompiler merges per-job registries in input order to stay
 * deterministic across thread counts.
 */

#ifndef AUTOBRAID_TELEMETRY_METRICS_HPP
#define AUTOBRAID_TELEMETRY_METRICS_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace autobraid {
namespace telemetry {

/** Fixed-bucket histogram: counts per bucket plus summary stats. */
struct Histogram
{
    /** Ascending inclusive upper bounds; counts has one extra
     *  overflow slot for values above the last bound. */
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;

    explicit Histogram(std::vector<double> bucket_bounds = {});

    /** Record one value into its bucket and the summary stats. */
    void observe(double value);

    /** Accumulate @p other (bucket layouts must match). */
    void merge(const Histogram &other);

    double mean() const { return count ? sum / static_cast<double>(count) : 0; }

    /** Observations in the first bucket (values <= bounds[0]). */
    uint64_t underflow() const { return counts.empty() ? 0 : counts.front(); }

    /** Observations above the last bound. */
    uint64_t overflow() const { return counts.empty() ? 0 : counts.back(); }

    /**
     * Bucket-resolution quantile estimate for @p q in [0, 1]: the
     * upper bound of the bucket holding the ceil(q * count)-th
     * observation (the recorded max for the overflow bucket). Exact to
     * bucket granularity and deterministic — no interpolation.
     */
    double quantile(double q) const;
};

/** Default work-item bounds: powers of two 1, 2, 4, ..., 65536. */
const std::vector<double> &powerOfTwoBounds();

/** Share/ratio bounds: 0.1, 0.2, ..., 1.0 (utilization, acceptance). */
const std::vector<double> &ratioBounds();

/**
 * Thread-safe named metrics store. toJson() iterates the sorted maps,
 * so two registries fed the same values in the same order serialize
 * byte-identically.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &other);
    MetricsRegistry &operator=(const MetricsRegistry &other);

    /** Add @p delta to counter @p name (creating it at zero). */
    void add(const std::string &name, long long delta = 1);

    /** Set gauge @p name to @p value (last write wins). */
    void set(const std::string &name, double value);

    /** Record @p value into histogram @p name; @p bucket_bounds is
     *  used only when the histogram is first created. */
    void observe(const std::string &name, double value,
                 const std::vector<double> &bucket_bounds =
                     powerOfTwoBounds());

    long long counter(const std::string &name) const;
    double gauge(const std::string &name) const;
    /** Copy of histogram @p name (empty histogram when absent). */
    Histogram histogram(const std::string &name) const;

    /** True when nothing has been recorded. */
    bool empty() const;

    /** Accumulate @p other: counters add, histograms merge, gauges
     *  overwrite. Call in a deterministic order for determinism. */
    void merge(const MetricsRegistry &other);

    /** Deterministic JSON snapshot:
     *  {"counters":{},"gauges":{},"histograms":{}}. */
    std::string toJson() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, long long> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace telemetry
} // namespace autobraid

#endif // AUTOBRAID_TELEMETRY_METRICS_HPP
