#include "telemetry/chrome_trace.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "common/text.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace telemetry {
namespace {

constexpr int kCompilerPid = 1;
constexpr int kSchedulePid = 2;
/** Schedule tracks beyond this all land on the last row. */
constexpr size_t kMaxScheduleTracks = 256;

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

std::string
chromeTraceJson(const CompileReport &report, const CostModel &cost)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    const std::pair<int, std::string> processes[] = {
        {kCompilerPid, "compiler (wall clock)"},
        {kSchedulePid, report.circuit_name.empty()
                           ? std::string("schedule (simulated)")
                           : "schedule (simulated): " +
                                 report.circuit_name}};
    for (const auto &[pid, name] : processes)
        w.beginObject().key("ph").value("M").key("pid").value(pid)
            .key("name").value("process_name")
            .key("args").beginObject().key("name").value(name).end()
            .end();
    // A complete ("X") event; the caller adds args and closes it.
    const auto slice = [&w](int pid, auto tid, const char *cat,
                            const std::string &name, double ts,
                            double dur) {
        w.beginObject().key("ph").value("X").key("pid").value(pid);
        w.key("tid").value(tid).key("cat").value(cat);
        w.key("name").value(name);
        w.key("ts").fixed(ts, 3).key("dur").fixed(dur, 3);
    };

    // --- pid 1: wall-clock spans (or pass timings as a fallback). ---
    bool have_spans = false;
    if (report.telemetry) {
        for (const SpanRecord &s : report.telemetry->tracer().spans()) {
            have_spans = true;
            slice(kCompilerPid, s.tid, "span", s.name, s.start_us,
                  s.dur_us);
            w.end();
        }
    }
    if (!have_spans) {
        // Telemetry (or its span recording) was off: synthesize a
        // sequential pass track from the report's per-pass timings so
        // the compiler process is never empty.
        double ts = 0;
        for (const PassTiming &t : report.pass_timings) {
            const double dur = t.seconds * 1e6;
            slice(kCompilerPid, 1, "pass", "pass." + t.pass, ts, dur);
            w.end();
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
        slice(kSchedulePid, track + 1, cat, name, cost.micros(e.start),
              cost.micros(e.finish - e.start));
        if (!e.path.empty())
            w.key("args").beginObject()
                .key("path_vertices").value(e.path.length())
                .key("release_us").fixed(cost.micros(e.channel_release), 3)
                .end();
        w.end();
    }

    // --- pid 2: utilization counter track (Fig. 17 timeline). ---
    if (report.grid_side > 0 && !report.result.trace.empty()) {
        const Grid grid(report.grid_side, report.grid_side);
        for (const UtilPoint &pt :
             utilizationTimeline(report.result, grid)) {
            w.beginObject().key("ph").value("C");
            w.key("pid").value(kSchedulePid).key("tid").value(0);
            w.key("name").value("utilization");
            w.key("ts").fixed(cost.micros(pt.time), 3);
            w.key("args").beginObject()
                .key("busy_fraction").fixed(pt.busy_fraction, 6)
                .end().end();
        }
    }

    w.end().end();
    return out;
}

} // namespace telemetry
} // namespace autobraid
