/**
 * @file
 * autobraid_inspect — flight-recording viewer and regression differ.
 *
 * Consumes the versioned recording JSON written by the schedule-time
 * flight recorder (--record-out on autobraid_cli / autobraid_fuzz;
 * docs/observability.md) and renders it for humans and for CI:
 *
 *   autobraid_inspect timeline REC [--out=FILE]
 *       Chrome-trace timeline (chrome://tracing, Perfetto): one track
 *       per logical qubit, each gate drawn on its q0 track as colored
 *       stall slices (dependence/congestion/region_conflict/defect)
 *       followed by an execution slice.
 *
 *   autobraid_inspect heatmap REC [--csv] [--out=FILE]
 *       Per-vertex congestion heatmap as JSON (default) or a
 *       grid_rows x grid_cols CSV matrix of busy cycles.
 *
 *   autobraid_inspect summary REC [--top=K]
 *       Stall-attribution table (cycles and share per cause) plus the
 *       top-K most congested lattice vertices.
 *
 *   autobraid_inspect diff A B [--makespan-threshold=F]
 *       [--stall-threshold=F] [--report=FILE]
 *       Compare two recordings or two metrics-registry JSONs
 *       (--metrics-out on the other tools; the format is
 *       auto-detected per file). Prints per-key deltas,
 *       optionally writes a text report, and exits 1 when B regresses
 *       beyond the thresholds: makespan by more than F_m (default
 *       0.10) or total stall cycles by more than F_s (default 0.15),
 *       relative to A (with a floor of 1 to keep zero baselines
 *       meaningful). This is the CI perf-smoke regression gate.
 *
 * Exit status: 0 ok, 1 regression found (diff only), 2 usage or input
 * error.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "telemetry/recorder.hpp"

using namespace autobraid;

namespace {

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: autobraid_inspect <command> [options]\n"
        "  timeline REC [--out=FILE]   Chrome-trace timeline\n"
        "  heatmap REC [--csv] [--out=FILE]\n"
        "                              per-vertex busy-cycle heatmap\n"
        "  summary REC [--top=K]       stall-attribution summary\n"
        "  diff A B [--makespan-threshold=F] [--stall-threshold=F]\n"
        "           [--report=FILE]    regression gate (exit 1 on\n"
        "                              regression)\n"
        "Inputs are recording JSONs (autobraid_cli --record-out) or,\n"
        "for diff, metrics JSONs (--metrics-out); \"-\" writes stdout.\n");
    std::exit(code);
}

void
writeOut(const std::string &path, const std::string &text)
{
    if (path.empty() || path == "-")
        std::fputs(text.c_str(), stdout);
    else
        writeTextFile(path, text);
}

/**
 * Whether @p text is a recording: its top-level "format", the last
 * one when repeated, is the string "autobraid-recording". It reads the
 * whole text without a tree, so malformed JSON raises here.
 */
bool
isRecordingText(std::string_view text)
{
    static constexpr const char *kFormat[] = {"format"};
    json::Reader r(text);
    json::Member format[1];
    bool recording = false;
    json::readMembers(r, kFormat, format, [&r, &recording](size_t) {
        recording = r.peek() == json::Value::Kind::String;
        if (recording)
            recording = r.string() == "autobraid-recording";
        else
            r.skip();
        return std::string();
    });
    r.finish();
    return recording;
}

bool
isMetricsDoc(const json::Value &doc)
{
    return doc.find("counters") != nullptr &&
           doc.find("gauges") != nullptr;
}

// ---------------------------------------------------------------- timeline

/** Chrome-trace color name per stall cause (plus green execution). */
const char *
causeColor(telemetry::StallCause cause)
{
    switch (cause) {
    case telemetry::StallCause::Dependence:
        return "grey";
    case telemetry::StallCause::Congestion:
        return "terrible"; // red
    case telemetry::StallCause::RegionConflict:
        return "bad"; // orange
    case telemetry::StallCause::Defect:
        return "black";
    }
    return "grey";
}

std::string
runTimeline(const telemetry::FlightRecording &rec)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    const auto meta = [&w](const char *what, int tid,
                           const std::string &name) {
        w.beginObject().key("ph").value("M").key("pid").value(1);
        if (tid >= 0)
            w.key("tid").value(tid);
        w.key("name").value(what);
        w.key("args").beginObject().key("name").value(name).end().end();
    };
    meta("process_name", -1,
         strformat("%s (%s, %s)", rec.circuit.c_str(),
                   rec.policy.c_str(), rec.backend.c_str()));

    // One track per logical qubit; a gate draws on its q0 track.
    int32_t max_qubit = 0;
    for (const telemetry::GateRecord &g : rec.gates)
        max_qubit = std::max({max_qubit, g.q0, g.q1});
    for (int32_t q = 0; q <= max_qubit; ++q)
        meta("thread_name", q, strformat("q%d", q));

    // A complete ("X") event; the caller adds args and closes it.
    const auto slice = [&w](int tid, uint64_t ts, uint64_t dur,
                            const std::string &name, const char *color) {
        w.beginObject().key("ph").value("X").key("pid").value(1);
        w.key("tid").value(tid).key("ts").value(ts).key("dur").value(dur);
        w.key("name").value(name).key("cname").value(color);
        w.key("args").beginObject();
    };
    for (size_t i = 0; i < rec.gates.size(); ++i) {
        const telemetry::GateRecord &g = rec.gates[i];
        if (!g.complete())
            continue;
        const int tid = g.q0 < 0 ? 0 : g.q0;
        const std::string label = g.kind + "#" + std::to_string(i);
        // Stall slices tile [ready, dispatched] in cause order; the
        // recorder's exact-sum invariant guarantees they fit.
        uint64_t t = g.ready;
        for (size_t c = 0; c < telemetry::kNumStallCauses; ++c) {
            if (g.stall[c] == 0)
                continue;
            const telemetry::StallCause cause =
                static_cast<telemetry::StallCause>(c);
            const char *name = telemetry::stallCauseName(cause);
            slice(tid, t, g.stall[c], label + " stall:" + name,
                  causeColor(cause));
            w.key("cause").value(name).end().end();
            t += g.stall[c];
        }
        if (g.retired > g.dispatched) {
            slice(tid, g.dispatched, g.retired - g.dispatched, label,
                  "good");
            w.key("q0").value(g.q0).key("q1").value(g.q1);
            w.key("blocked_attempts").value(g.blocked_attempts);
            w.end().end();
        }
    }
    w.end().end();
    out += '\n';
    return out;
}

// ----------------------------------------------------------------- heatmap

/** Busy cycles of the vertex at row @p r, column @p c. */
uint64_t
busyAt(const telemetry::FlightRecording &rec, int r, int c)
{
    return rec.vertex_busy_cycles[static_cast<size_t>(r) *
                                      static_cast<size_t>(rec.grid_cols) +
                                  static_cast<size_t>(c)];
}

std::string
runHeatmapJson(const telemetry::FlightRecording &rec)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("format").value("autobraid-heatmap");
    w.key("circuit").value(rec.circuit);
    w.key("grid_rows").value(rec.grid_rows);
    w.key("grid_cols").value(rec.grid_cols);
    w.key("makespan").value(rec.makespan).key("rows").beginArray();
    for (int r = 0; r < rec.grid_rows; ++r) {
        w.beginArray();
        for (int c = 0; c < rec.grid_cols; ++c)
            w.value(busyAt(rec, r, c));
        w.end();
    }
    w.end().end();
    out += '\n';
    return out;
}

std::string
runHeatmapCsv(const telemetry::FlightRecording &rec)
{
    std::string out;
    for (int r = 0; r < rec.grid_rows; ++r) {
        for (int c = 0; c < rec.grid_cols; ++c) {
            if (c)
                out += ",";
            out += std::to_string(busyAt(rec, r, c));
        }
        out += "\n";
    }
    return out;
}

// ----------------------------------------------------------------- summary

std::string
runSummary(const telemetry::FlightRecording &rec, int top_k)
{
    std::string out = strformat(
        "recording: %s  policy=%s backend=%s grid=%dx%d "
        "makespan=%llu\n",
        rec.circuit.c_str(), rec.policy.c_str(), rec.backend.c_str(),
        rec.grid_rows, rec.grid_cols,
        static_cast<unsigned long long>(rec.makespan));

    size_t complete = 0;
    uint64_t blocked_attempts = 0;
    for (const telemetry::GateRecord &g : rec.gates) {
        complete += g.complete() ? 1 : 0;
        blocked_attempts += g.blocked_attempts;
    }
    out += strformat("gates: %zu (%zu complete), blocked "
                     "examinations: %llu\n",
                     rec.gates.size(), complete,
                     static_cast<unsigned long long>(
                         blocked_attempts));

    const uint64_t total = rec.stallTotal();
    out += "stall attribution:\n";
    out += strformat("  %-16s %14s %8s\n", "cause", "cycles",
                     "share");
    for (size_t c = 0; c < telemetry::kNumStallCauses; ++c) {
        const double share =
            total == 0 ? 0.0
                       : 100.0 * static_cast<double>(
                                     rec.stall_totals[c]) /
                             static_cast<double>(total);
        out += strformat("  %-16s %14llu %7.1f%%\n",
                         telemetry::stallCauseName(
                             static_cast<telemetry::StallCause>(c)),
                         static_cast<unsigned long long>(
                             rec.stall_totals[c]),
                         share);
    }
    out += strformat("  %-16s %14llu\n", "total",
                     static_cast<unsigned long long>(total));

    // Top-K congested vertices (stable order: busy desc, id asc).
    std::vector<size_t> order(rec.vertex_busy_cycles.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (rec.vertex_busy_cycles[a] != rec.vertex_busy_cycles[b])
            return rec.vertex_busy_cycles[a] >
                   rec.vertex_busy_cycles[b];
        return a < b;
    });
    const size_t k = std::min(order.size(),
                              static_cast<size_t>(
                                  top_k < 0 ? 0 : top_k));
    out += strformat("top %zu congested vertices:\n", k);
    out += strformat("  %-8s %-10s %14s %8s\n", "vertex", "(r,c)",
                     "busy_cycles", "util");
    for (size_t i = 0; i < k; ++i) {
        const size_t v = order[i];
        const uint64_t busy = rec.vertex_busy_cycles[v];
        if (busy == 0)
            break;
        const int r = rec.grid_cols > 0
                          ? static_cast<int>(v) / rec.grid_cols
                          : 0;
        const int c = rec.grid_cols > 0
                          ? static_cast<int>(v) % rec.grid_cols
                          : 0;
        const double util =
            rec.makespan == 0
                ? 0.0
                : 100.0 * static_cast<double>(busy) /
                      static_cast<double>(rec.makespan);
        out += strformat("  %-8zu %-10s %14llu %7.1f%%\n", v,
                         strformat("(%d,%d)", r, c).c_str(),
                         static_cast<unsigned long long>(busy), util);
    }
    return out;
}

// -------------------------------------------------------------------- diff

/** Flat key -> value view of a recording or metrics document. */
struct FlatDoc
{
    std::string kind; ///< "recording" or "metrics"
    std::vector<std::pair<std::string, double>> entries;

    double get(const std::string &key, double fallback) const
    {
        for (const auto &[k, v] : entries)
            if (k == key)
                return v;
        return fallback;
    }
};

FlatDoc
flatten(const std::string &path)
{
    const std::string text = readTextFile(path);
    FlatDoc flat;
    if (isRecordingText(text)) {
        flat.kind = "recording";
        const telemetry::FlightRecording rec =
            telemetry::decodeRecording(text);
        flat.entries.emplace_back(
            "makespan", static_cast<double>(rec.makespan));
        for (size_t c = 0; c < telemetry::kNumStallCauses; ++c)
            flat.entries.emplace_back(
                strformat("stall.%s",
                          telemetry::stallCauseName(
                              static_cast<telemetry::StallCause>(c))),
                static_cast<double>(rec.stall_totals[c]));
        flat.entries.emplace_back(
            "stall_total", static_cast<double>(rec.stallTotal()));
        flat.entries.emplace_back(
            "heatmap_sum", static_cast<double>(rec.heatmapSum()));
        flat.entries.emplace_back(
            "gates", static_cast<double>(rec.gates.size()));
        return flat;
    }
    const json::Value doc = json::parse(text);
    if (isMetricsDoc(doc)) {
        flat.kind = "metrics";
        for (const auto &[name, v] :
             doc.find("counters")->asObject())
            flat.entries.emplace_back("counter." + name,
                                      v.asNumber());
        for (const auto &[name, v] : doc.find("gauges")->asObject())
            flat.entries.emplace_back("gauge." + name, v.asNumber());
        if (const json::Value *hists = doc.find("histograms")) {
            for (const auto &[name, h] : hists->asObject()) {
                for (const char *field :
                     {"count", "sum", "p50", "p90", "p99"})
                    flat.entries.emplace_back(
                        strformat("hist.%s.%s", name.c_str(), field),
                        h.numberOr(field, 0));
            }
        }
        return flat;
    }
    fatal("%s: neither a recording nor a metrics JSON document",
          path.c_str());
}

/** Makespan for the gate, whichever document kind carries it. */
double
gateMakespan(const FlatDoc &doc)
{
    if (doc.kind == "recording")
        return doc.get("makespan", 0);
    return doc.get("gauge.sched.makespan_cycles", 0);
}

/** Total stall cycles for the gate. */
double
gateStall(const FlatDoc &doc)
{
    if (doc.kind == "recording")
        return doc.get("stall_total", 0);
    double total = 0;
    for (const auto &[k, v] : doc.entries)
        if (k.rfind("counter.sched.stall_cycles.", 0) == 0)
            total += v;
    return total;
}

/**
 * Relative change from @p a to @p b with a floor of 1 on the
 * baseline, so a zero baseline gaining N cycles reads as +N rather
 * than an undefined ratio.
 */
double
relChange(double a, double b)
{
    return (b - a) / std::max(a, 1.0);
}

int
runDiff(const std::string &path_a, const std::string &path_b,
        double makespan_threshold, double stall_threshold,
        const std::string &report_out)
{
    const FlatDoc a = flatten(path_a);
    const FlatDoc b = flatten(path_b);
    if (a.kind != b.kind)
        fatal("cannot diff a %s document against a %s document",
              a.kind.c_str(), b.kind.c_str());

    std::string report = strformat(
        "autobraid_inspect diff (%s)\n  A: %s\n  B: %s\n",
        a.kind.c_str(), path_a.c_str(), path_b.c_str());
    report += strformat("  %-40s %14s %14s %9s\n", "key", "A", "B",
                        "delta");

    // Union of keys, A's order first, then B-only keys.
    std::vector<std::string> keys;
    for (const auto &[k, v] : a.entries)
        keys.push_back(k);
    for (const auto &[k, v] : b.entries)
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    for (const std::string &k : keys) {
        const double va = a.get(k, 0);
        const double vb = b.get(k, 0);
        if (va == vb)
            continue; // keep reports focused on what moved
        report += strformat("  %-40s %14.6g %14.6g %+8.1f%%\n",
                            k.c_str(), va, vb,
                            100.0 * relChange(va, vb));
    }

    bool regressed = false;
    const double makespan_rel =
        relChange(gateMakespan(a), gateMakespan(b));
    const double stall_rel = relChange(gateStall(a), gateStall(b));
    report += strformat(
        "gate: makespan %+0.1f%% (threshold +%0.1f%%), stall cycles "
        "%+0.1f%% (threshold +%0.1f%%)\n",
        100.0 * makespan_rel, 100.0 * makespan_threshold,
        100.0 * stall_rel, 100.0 * stall_threshold);
    if (makespan_rel > makespan_threshold) {
        report += strformat("REGRESSION: makespan %+0.1f%% exceeds "
                            "+%0.1f%%\n",
                            100.0 * makespan_rel,
                            100.0 * makespan_threshold);
        regressed = true;
    }
    if (stall_rel > stall_threshold) {
        report += strformat("REGRESSION: stall cycles %+0.1f%% "
                            "exceeds +%0.1f%%\n",
                            100.0 * stall_rel,
                            100.0 * stall_threshold);
        regressed = true;
    }
    if (!regressed)
        report += "ok: within thresholds\n";

    std::fputs(report.c_str(), stdout);
    if (!report_out.empty() && report_out != "-")
        writeTextFile(report_out, report);
    return regressed ? 1 : 0;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        usage(2);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h")
        usage(0);

    std::vector<std::string> inputs;
    std::string out;
    std::string report_out;
    bool csv = false;
    int top_k = 10;
    double makespan_threshold = 0.10;
    double stall_threshold = 0.15;
    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (matchValue(arg, "--out", value)) {
            out = value;
        } else if (matchValue(arg, "--report", value)) {
            report_out = value;
        } else if (std::strcmp(arg, "--csv") == 0) {
            csv = true;
        } else if (matchValue(arg, "--top", value)) {
            // Checked parses throw UserError on garbage or range
            // violations; main() maps that to usage exit code 2.
            top_k = parseCheckedIntFlag(value, "--top", 0, 1'000'000);
        } else if (matchValue(arg, "--makespan-threshold", value)) {
            makespan_threshold = parseCheckedDouble(
                value, "--makespan-threshold", 0.0, 1e6);
        } else if (matchValue(arg, "--stall-threshold", value)) {
            stall_threshold = parseCheckedDouble(
                value, "--stall-threshold", 0.0, 1e6);
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(2);
        } else {
            inputs.emplace_back(arg);
        }
    }

    if (cmd == "timeline" || cmd == "heatmap" || cmd == "summary") {
        if (inputs.size() != 1)
            fatal("%s needs exactly one recording", cmd.c_str());
        const telemetry::FlightRecording rec =
            telemetry::decodeRecording(readTextFile(inputs[0]));
        if (cmd == "timeline")
            writeOut(out, runTimeline(rec));
        else if (cmd == "summary")
            writeOut(out, runSummary(rec, top_k));
        else
            writeOut(out,
                     csv ? runHeatmapCsv(rec) : runHeatmapJson(rec));
        return 0;
    }
    if (cmd == "diff") {
        if (inputs.size() != 2)
            fatal("diff needs exactly two inputs");
        return runDiff(inputs[0], inputs[1], makespan_threshold,
                       stall_threshold, report_out);
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    usage(2);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const UserError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 2;
    }
}
