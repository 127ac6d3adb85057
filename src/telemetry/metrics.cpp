#include "telemetry/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"

namespace autobraid {
namespace telemetry {
namespace {

/**
 * Significant digits of every metric double (%.9g): counters held as
 * doubles stay exact and ratios stable, without %f's trailing zeros.
 */
constexpr int kDigits = 9;

} // namespace

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)),
      counts(bounds.size() + 1, 0)
{
    require(std::is_sorted(bounds.begin(), bounds.end()),
            "Histogram: bucket bounds must be ascending");
}

void
Histogram::observe(double value)
{
    size_t b = 0;
    while (b < bounds.size() && value > bounds[b])
        ++b;
    ++counts[b];
    if (count == 0) {
        min = max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    ++count;
    sum += value;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count == 0)
        return;
    if (count == 0)
        *this = other;
    else {
        require(bounds == other.bounds,
                "Histogram::merge: bucket layouts differ");
        for (size_t i = 0; i < counts.size(); ++i)
            counts[i] += other.counts[i];
        count += other.count;
        sum += other.sum;
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
}

double
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0;
    if (q <= 0)
        return min;
    // The smallest rank whose cumulative count reaches q * count.
    const double want = q * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        cumulative += counts[i];
        if (static_cast<double>(cumulative) >= want)
            return i < bounds.size() ? bounds[i] : max;
    }
    return max;
}

const std::vector<double> &
powerOfTwoBounds()
{
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        for (double v = 1; v <= 65536; v *= 2)
            b.push_back(v);
        return b;
    }();
    return bounds;
}

const std::vector<double> &
ratioBounds()
{
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        for (int i = 1; i <= 10; ++i)
            b.push_back(0.1 * i);
        return b;
    }();
    return bounds;
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry &other)
{
    std::lock_guard<std::mutex> lock(other.mu_);
    counters_ = other.counters_;
    gauges_ = other.gauges_;
    histograms_ = other.histograms_;
}

MetricsRegistry &
MetricsRegistry::operator=(const MetricsRegistry &other)
{
    if (this == &other)
        return *this;
    MetricsRegistry copy(other);
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = std::move(copy.counters_);
    gauges_ = std::move(copy.gauges_);
    histograms_ = std::move(copy.histograms_);
    return *this;
}

void
MetricsRegistry::add(const std::string &name, long long delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu_);
    gauges_[name] = value;
}

void
MetricsRegistry::observe(const std::string &name, double value,
                         const std::vector<double> &bucket_bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(bucket_bounds)).first;
    it->second.observe(value);
}

long long
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
}

Histogram
MetricsRegistry::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? Histogram{} : it->second;
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty() &&
           histograms_.empty();
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    // Snapshot first so self-merge and lock ordering are safe.
    const MetricsRegistry snap(other);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, value] : snap.counters_)
        counters_[name] += value;
    for (const auto &[name, value] : snap.gauges_)
        gauges_[name] = value;
    for (const auto &[name, hist] : snap.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end())
            histograms_.emplace(name, hist);
        else
            it->second.merge(hist);
    }
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    json::Writer w(out);
    w.beginObject().key("counters").beginObject();
    for (const auto &[name, value] : counters_)
        w.key(name).value(value);
    w.end().key("gauges").beginObject();
    for (const auto &[name, value] : gauges_)
        w.key(name).significant(value, kDigits);
    w.end().key("histograms").beginObject();
    for (const auto &[name, h] : histograms_) {
        w.key(name).beginObject().key("count").value(h.count);
        w.key("sum").significant(h.sum, kDigits);
        w.key("min").significant(h.min, kDigits);
        w.key("max").significant(h.max, kDigits);
        w.key("p50").significant(h.quantile(0.50), kDigits);
        w.key("p90").significant(h.quantile(0.90), kDigits);
        w.key("p99").significant(h.quantile(0.99), kDigits);
        w.key("underflow").value(h.underflow());
        w.key("overflow").value(h.overflow());
        w.key("bounds").beginArray();
        for (double bound : h.bounds)
            w.significant(bound, kDigits);
        w.end().key("counts").beginArray();
        for (uint64_t count : h.counts)
            w.value(count);
        w.end().end();
    }
    w.end().end();
    return out;
}

} // namespace telemetry
} // namespace autobraid
