/**
 * @file
 * Telemetry session: the thread-local sink the hot layers report to.
 *
 * A Telemetry object bundles one compilation's MetricsRegistry
 * (deterministic values) and Tracer (wall-clock spans). The driver
 * installs it into a thread-local slot for the duration of the compile
 * stages (TelemetryScope), and instrumented code anywhere below —
 * scheduler, path finders, annealer — reports through the AUTOBRAID_*
 * macros without threading a handle through every signature.
 *
 * Overhead contract: with no session installed (the default), every
 * macro is one thread-local load plus a branch — no locks, no
 * allocation — so always-on instrumentation in the hot paths costs
 * nothing measurable when telemetry is off (< 2% on
 * bench/batch_throughput, see docs/observability.md). Determinism
 * contract: enabling telemetry never changes CompileReport::counters
 * or metricsSummary(); wall-clock lives only in the Tracer.
 */

#ifndef AUTOBRAID_TELEMETRY_TELEMETRY_HPP
#define AUTOBRAID_TELEMETRY_TELEMETRY_HPP

#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace autobraid {
namespace telemetry {

/** User-facing telemetry switches (part of CompileOptions). */
struct TelemetryOptions
{
    bool enabled = false;  ///< master switch; off = zero overhead
    bool spans = true;     ///< record wall-clock spans when enabled
};

/** Span buffer cap per compilation; later spans count as dropped. */
constexpr size_t kMaxSpans = size_t{1} << 20;

/** One compilation's telemetry sink. */
class Telemetry
{
  public:
    explicit Telemetry(const TelemetryOptions &options = {})
        : options_(options), tracer_(kMaxSpans)
    {}

    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }
    bool spansEnabled() const { return options_.spans; }

  private:
    TelemetryOptions options_;
    MetricsRegistry metrics_;
    Tracer tracer_;
};

namespace detail {
/** The calling thread's installed sink (TelemetryScope sets it). */
inline thread_local Telemetry *g_current = nullptr;
} // namespace detail

/**
 * The calling thread's installed sink; nullptr when none. Inline, so
 * a disabled site costs one thread-local load and a branch.
 */
inline Telemetry *
current()
{
    return detail::g_current;
}

/**
 * RAII install of @p sink as the calling thread's telemetry target.
 * Installing nullptr actively *disables* telemetry for the scope —
 * a nested compilation with telemetry off must not leak its metrics
 * into an enclosing session. The previous sink is restored on exit.
 */
class TelemetryScope
{
  public:
    explicit TelemetryScope(Telemetry *sink);
    ~TelemetryScope();

    TelemetryScope(const TelemetryScope &) = delete;
    TelemetryScope &operator=(const TelemetryScope &) = delete;

  private:
    Telemetry *prev_;
};

/**
 * RAII wall-clock span. Cost when no session is installed (or spans
 * are off): one thread-local load and a branch. The name is copied
 * only when the span records, so an unrecorded span never allocates.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Telemetry *sink_ = nullptr; ///< non-null only while recording
    std::string name_;
    double start_us_ = 0;
};

/** Counter bump on the installed sink (no-op when none). */
inline void
count(const char *name, long long delta = 1)
{
    if (Telemetry *t = current())
        t->metrics().add(name, delta);
}

/** Gauge set on the installed sink (no-op when none). */
inline void
gaugeSet(const char *name, double value)
{
    if (Telemetry *t = current())
        t->metrics().set(name, value);
}

/** Histogram observation on the installed sink (no-op when none). */
inline void
observe(const char *name, double value,
        const std::vector<double> &bucket_bounds)
{
    if (Telemetry *t = current())
        t->metrics().observe(name, value, bucket_bounds);
}

/**
 * Histogram observation with powerOfTwoBounds(), fetched only when a
 * sink is installed.
 */
inline void
observe(const char *name, double value)
{
    if (Telemetry *t = current())
        t->metrics().observe(name, value, powerOfTwoBounds());
}

} // namespace telemetry
} // namespace autobraid

// Scoped-span and metric macros. Names follow the layer-dotted
// convention documented in docs/observability.md ("route.stack_finder",
// "sched.instant_utilization", ...).
#define AUTOBRAID_TLM_CONCAT2(a, b) a##b
#define AUTOBRAID_TLM_CONCAT(a, b) AUTOBRAID_TLM_CONCAT2(a, b)

/** RAII span covering the rest of the enclosing scope. */
#define AUTOBRAID_SPAN(name)                                           \
    ::autobraid::telemetry::ScopedSpan AUTOBRAID_TLM_CONCAT(          \
        autobraid_span_, __LINE__)(name)

/** Counter bump: AUTOBRAID_COUNT("x") or AUTOBRAID_COUNT("x", n). */
#define AUTOBRAID_COUNT(...) ::autobraid::telemetry::count(__VA_ARGS__)

/** Gauge set (last write wins). */
#define AUTOBRAID_GAUGE(name, value)                                   \
    ::autobraid::telemetry::gaugeSet(name, value)

/** Histogram observation with optional explicit bucket bounds. */
#define AUTOBRAID_OBSERVE(...)                                         \
    ::autobraid::telemetry::observe(__VA_ARGS__)

#endif // AUTOBRAID_TELEMETRY_TELEMETRY_HPP
