/**
 * @file
 * Wall-clock span tracer.
 *
 * Spans are the *wall-clock* side of instrumentation: each records the
 * start offset and duration of one scoped region (a pass, a scheduler
 * run, a path-finder call) relative to the tracer's epoch. Span data is
 * inherently non-deterministic, so it is quarantined here — it feeds
 * only the Chrome-trace exporter and never any deterministic output
 * (CompileReport::metricsSummary, MetricsRegistry). Recording is
 * thread-safe and bounded: past max_spans further spans are counted as
 * dropped instead of growing without limit.
 */

#ifndef AUTOBRAID_TELEMETRY_SPAN_HPP
#define AUTOBRAID_TELEMETRY_SPAN_HPP

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace autobraid {
namespace telemetry {

/** One completed span. */
struct SpanRecord
{
    std::string name;   ///< dotted layer name, e.g. "route.stack_finder"
    int tid = 0;        ///< small per-thread track id
    double start_us = 0; ///< offset from the tracer epoch
    double dur_us = 0;
};

/** Small stable track id of the calling thread (process-wide). */
int threadTrackId();

/** Collects spans relative to a construction-time epoch. */
class Tracer
{
  public:
    explicit Tracer(size_t max_spans);

    /** Microseconds elapsed since the tracer epoch. */
    double nowUs() const;

    /** Append one completed span (drops past max_spans). */
    void record(std::string name, int tid, double start_us,
                double dur_us);

    /** Copy of every recorded span, in completion order. */
    std::vector<SpanRecord> spans() const;

    size_t spanCount() const;

    /** Spans discarded because the buffer was full. */
    size_t droppedCount() const;

  private:
    const std::chrono::steady_clock::time_point epoch_;
    const size_t max_spans_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    size_t dropped_ = 0;
};

} // namespace telemetry
} // namespace autobraid

#endif // AUTOBRAID_TELEMETRY_SPAN_HPP
