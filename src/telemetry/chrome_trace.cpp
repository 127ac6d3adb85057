#include "telemetry/chrome_trace.hpp"

#include <algorithm>

#include "common/text.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace telemetry {
namespace {

constexpr int kCompilerPid = 1;
constexpr int kSchedulePid = 2;
/** Schedule tracks beyond this all land on the last row. */
constexpr size_t kMaxScheduleTracks = 256;

void
appendEvent(std::string &out, bool &first, const std::string &event)
{
    if (!first)
        out += ",";
    first = false;
    out += event;
}

std::string
metaEvent(int pid, int tid, const char *what, const std::string &name)
{
    std::string ev = strformat(
        "{\"ph\":\"M\",\"pid\":%d,\"name\":\"%s\",", pid, what);
    if (tid >= 0)
        ev += strformat("\"tid\":%d,", tid);
    ev += strformat("\"args\":{\"name\":\"%s\"}}",
                    jsonEscape(name).c_str());
    return ev;
}

/** Greedy interval partitioning: first track free at @p start. */
size_t
pickTrack(std::vector<Cycles> &track_busy_until, Cycles start)
{
    for (size_t i = 0; i < track_busy_until.size(); ++i) {
        if (track_busy_until[i] <= start)
            return i;
    }
    if (track_busy_until.size() < kMaxScheduleTracks) {
        track_busy_until.push_back(0);
        return track_busy_until.size() - 1;
    }
    return track_busy_until.size() - 1;
}

} // namespace

std::vector<UtilPoint>
utilizationTimeline(const ScheduleResult &result, const Grid &grid)
{
    // Sweep +len at start / -len at channel_release over all paths.
    std::vector<std::pair<Cycles, long>> deltas;
    deltas.reserve(2 * result.trace.size());
    for (const TraceEntry &e : result.trace) {
        if (e.path.empty())
            continue;
        const long len = static_cast<long>(e.path.length());
        deltas.emplace_back(e.start, len);
        deltas.emplace_back(e.channel_release, -len);
    }
    std::sort(deltas.begin(), deltas.end());

    const double total = static_cast<double>(grid.numVertices());
    std::vector<UtilPoint> timeline;
    long busy = 0;
    for (size_t i = 0; i < deltas.size();) {
        const Cycles t = deltas[i].first;
        while (i < deltas.size() && deltas[i].first == t)
            busy += deltas[i++].second;
        UtilPoint pt;
        pt.time = t;
        pt.busy_vertices = static_cast<size_t>(std::max(busy, 0L));
        pt.busy_fraction =
            static_cast<double>(pt.busy_vertices) / total;
        timeline.push_back(pt);
    }
    return timeline;
}

UtilStats
utilizationStats(const std::vector<UtilPoint> &timeline,
                 Cycles makespan)
{
    UtilStats stats;
    if (timeline.empty() || makespan == 0)
        return stats;
    double integral = 0;
    for (size_t i = 0; i < timeline.size(); ++i) {
        stats.peak = std::max(stats.peak, timeline[i].busy_fraction);
        const Cycles end = i + 1 < timeline.size()
                               ? timeline[i + 1].time
                               : makespan;
        if (end > timeline[i].time)
            integral += timeline[i].busy_fraction *
                        static_cast<double>(end - timeline[i].time);
    }
    stats.avg = integral / static_cast<double>(makespan);
    return stats;
}

std::string
chromeTraceJson(const CompileReport &report, const CostModel &cost)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;

    appendEvent(out, first,
                metaEvent(kCompilerPid, -1, "process_name",
                          "compiler (wall clock)"));
    appendEvent(out, first,
                metaEvent(kSchedulePid, -1, "process_name",
                          report.circuit_name.empty()
                              ? std::string("schedule (simulated)")
                              : "schedule (simulated): " +
                                    report.circuit_name));

    // --- pid 1: wall-clock spans (or pass timings as a fallback). ---
    bool have_spans = false;
    if (report.telemetry) {
        for (const SpanRecord &s : report.telemetry->tracer().spans()) {
            have_spans = true;
            appendEvent(
                out, first,
                strformat("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                          "\"cat\":\"span\",\"name\":\"%s\","
                          "\"ts\":%.3f,\"dur\":%.3f}",
                          kCompilerPid, s.tid,
                          jsonEscape(s.name).c_str(), s.start_us,
                          s.dur_us));
        }
    }
    if (!have_spans) {
        // Telemetry (or its span recording) was off: synthesize a
        // sequential pass track from the report's per-pass timings so
        // the compiler process is never empty.
        double ts = 0;
        for (const PassTiming &t : report.pass_timings) {
            const double dur = t.seconds * 1e6;
            appendEvent(
                out, first,
                strformat("{\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                          "\"cat\":\"pass\",\"name\":\"pass.%s\","
                          "\"ts\":%.3f,\"dur\":%.3f}",
                          kCompilerPid,
                          jsonEscape(t.pass).c_str(), ts, dur));
            ts += dur;
        }
    }

    // --- pid 2: the schedule trace on greedily-packed tracks. ---
    std::vector<Cycles> track_busy_until;
    for (const TraceEntry &e : report.result.trace) {
        const size_t track = pickTrack(track_busy_until, e.start);
        track_busy_until[track] = std::max(track_busy_until[track],
                                           e.finish);
        std::string name;
        const char *cat;
        if (e.gate == kNoGate) {
            name = strformat("swap q%d<->q%d", e.swap_a, e.swap_b);
            cat = "swap";
        } else if (e.path.empty()) {
            name = strformat("gate %llu",
                             static_cast<unsigned long long>(e.gate));
            cat = "local";
        } else {
            name = strformat("braid %llu",
                             static_cast<unsigned long long>(e.gate));
            cat = "braid";
        }
        std::string ev = strformat(
            "{\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,\"cat\":\"%s\","
            "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f",
            kSchedulePid, track + 1, cat,
            jsonEscape(name).c_str(), cost.micros(e.start),
            cost.micros(e.finish - e.start));
        if (!e.path.empty())
            ev += strformat(",\"args\":{\"path_vertices\":%zu,"
                            "\"release_us\":%.3f}",
                            e.path.length(),
                            cost.micros(e.channel_release));
        ev += "}";
        appendEvent(out, first, ev);
    }

    // --- pid 2: utilization counter track (Fig. 17 timeline). ---
    if (report.grid_side > 0 && !report.result.trace.empty()) {
        const Grid grid(report.grid_side, report.grid_side);
        for (const UtilPoint &pt :
             utilizationTimeline(report.result, grid)) {
            appendEvent(
                out, first,
                strformat("{\"ph\":\"C\",\"pid\":%d,\"tid\":0,"
                          "\"name\":\"utilization\",\"ts\":%.3f,"
                          "\"args\":{\"busy_fraction\":%.6f}}",
                          kSchedulePid, cost.micros(pt.time),
                          pt.busy_fraction));
        }
    }

    out += "]}";
    return out;
}

} // namespace telemetry
} // namespace autobraid
