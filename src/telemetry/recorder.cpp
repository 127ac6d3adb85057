#include "telemetry/recorder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"

namespace autobraid {
namespace telemetry {

namespace {

/** Sentinel for "no pending cause" in FlightRecorder::pending_. */
constexpr uint8_t kNoPending = static_cast<uint8_t>(kNumStallCauses);

const json::Value &
field(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    if (!v)
        fatal("recording is missing \"%s\"", key);
    return *v;
}

const std::string &
text(const json::Value &obj, const char *key)
{
    const json::Value &v = field(obj, key);
    if (!v.isString())
        fatal("recording field \"%s\" is not a string", key);
    return v.asString();
}

const json::Array &
list(const json::Value &obj, const char *key)
{
    const json::Value &v = field(obj, key);
    if (!v.isArray())
        fatal("recording field \"%s\" is not an array", key);
    return v.asArray();
}

// 2^64, 2^32 and 2^31: one past the largest uint64_t, uint32_t and int.
constexpr double kU64Limit = 18446744073709551616.0;
constexpr double kU32Limit = 4294967296.0;
constexpr double kIntLimit = 2147483648.0;

/** @p v as an integer in [0, @p limit), checked before the cast. */
uint64_t
natural(const json::Value &v, const char *what, double limit)
{
    const double d = v.isNumber() ? v.asNumber() : -1.0;
    if (d >= 0.0 && d < limit) {
        const auto n = static_cast<uint64_t>(d);
        if (static_cast<double>(n) == d)
            return n;
    }
    fatal("recording field \"%s\" must be an integer in [0, %.0f)", what,
          limit);
}

uint64_t
naturalAt(const json::Value &obj, const char *key,
          double limit = kU64Limit)
{
    return natural(field(obj, key), key, limit);
}

/** A gate operand: -1 (none) or an index below @p vertices. */
int32_t
operand(const json::Value &gate, const char *key, uint64_t vertices)
{
    const json::Value &v = field(gate, key);
    if (v.isNumber() && v.asNumber() == -1.0)
        return -1;
    return static_cast<int32_t>(natural(
        v, key, std::min(static_cast<double>(vertices), kIntLimit)));
}

void
stalls(const json::Value &obj, const char *key, uint64_t *by_cause)
{
    const json::Value &causes = field(obj, key);
    for (size_t c = 0; c < kNumStallCauses; ++c)
        by_cause[c] = naturalAt(
            causes, stallCauseName(static_cast<StallCause>(c)));
}

StallCause
causeNamed(const std::string &name)
{
    for (size_t c = 0; c < kNumStallCauses; ++c)
        if (name == stallCauseName(static_cast<StallCause>(c)))
            return static_cast<StallCause>(c);
    fatal("recording has unknown stall cause \"%s\"", name.c_str());
}

} // namespace

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
    case StallCause::Dependence:
        return "dependence";
    case StallCause::Congestion:
        return "congestion";
    case StallCause::RegionConflict:
        return "region_conflict";
    case StallCause::Defect:
        return "defect";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(size_t num_gates, size_t num_vertices)
    : wait_since_(num_gates, kNoCycle),
      pending_(num_gates, kNoPending)
{
    recording_.gates.resize(num_gates);
    recording_.vertex_busy_cycles.assign(num_vertices, 0);
}

void
FlightRecorder::onReady(uint64_t g, uint64_t t)
{
    GateRecord &rec = recording_.gates[g];
    if (rec.ready != kNoCycle)
        return;
    rec.ready = t;
    wait_since_[g] = t;
}

void
FlightRecorder::closeSegment(uint64_t g, uint64_t t)
{
    const uint8_t cause = pending_[g];
    if (cause == kNoPending)
        return;
    const uint64_t since = wait_since_[g];
    if (t > since) {
        recording_.gates[g].stall[cause] += t - since;
        recording_.stall_totals[cause] += t - since;
    }
}

void
FlightRecorder::onBlocked(uint64_t g, uint64_t t, StallCause cause)
{
    onReady(g, t); // defensive: blocked implies ready
    // A gap with no pending cause means the gate waited without being
    // examined (it became ready mid-flight); nothing but upstream
    // completions defined that window, so charge it to dependence.
    if (pending_[g] == kNoPending && t > wait_since_[g])
        pending_[g] = static_cast<uint8_t>(StallCause::Dependence);
    closeSegment(g, t);
    wait_since_[g] = t;
    pending_[g] = static_cast<uint8_t>(cause);
    GateRecord &rec = recording_.gates[g];
    rec.blocked_attempts += 1;
    recording_.blocked.push_back(BlockedEvent{g, t, cause});
}

void
FlightRecorder::onDispatched(uint64_t g, uint64_t t)
{
    onReady(g, t); // defensive: same-instant ready->dispatch cascades
    GateRecord &rec = recording_.gates[g];
    if (rec.dispatched != kNoCycle)
        return;
    // Any wait with no intervening blocked examination (the gate
    // became ready mid-flight and dispatched at the next instant it
    // was looked at) is a dependence stall: nothing but upstream
    // completions defined the gap.
    if (pending_[g] == kNoPending && t > wait_since_[g])
        pending_[g] = static_cast<uint8_t>(StallCause::Dependence);
    closeSegment(g, t);
    pending_[g] = kNoPending;
    rec.dispatched = t;
}

void
FlightRecorder::onRetired(uint64_t g, uint64_t t)
{
    GateRecord &rec = recording_.gates[g];
    // Zero-duration gates retire in the same call chain that
    // dispatched them; make sure the earlier stages are closed even
    // if the scheduler skipped the explicit dispatch hook.
    if (rec.dispatched == kNoCycle)
        onDispatched(g, t);
    if (rec.retired == kNoCycle)
        rec.retired = t;
}

void
FlightRecorder::onRegionHeld(const int32_t *vertices, size_t count,
                             uint64_t from, uint64_t until)
{
    if (until <= from)
        return;
    const uint64_t held = until - from;
    for (size_t i = 0; i < count; ++i) {
        const int32_t v = vertices[i];
        if (v >= 0 &&
            static_cast<size_t>(v) <
                recording_.vertex_busy_cycles.size())
            recording_.vertex_busy_cycles[static_cast<size_t>(v)] +=
                held;
    }
}

void
FlightRecorder::trimVertexBusy(int32_t v, uint64_t excess)
{
    if (v < 0 ||
        static_cast<size_t>(v) >=
            recording_.vertex_busy_cycles.size())
        return;
    uint64_t &cell =
        recording_.vertex_busy_cycles[static_cast<size_t>(v)];
    cell -= excess > cell ? cell : excess;
}

FlightRecording
FlightRecorder::finish(uint64_t makespan)
{
    recording_.makespan = makespan;
    return std::move(recording_);
}

std::string
FlightRecording::toJson() const
{
    std::string out;
    out.reserve(256 + gates.size() * 160 + blocked.size() * 48 +
                vertex_busy_cycles.size() * 8);
    json::Writer w(out, json::Writer::Layout::Document);
    const auto stalls = [&w](const uint64_t *by_cause) {
        w.beginObject();
        for (size_t c = 0; c < kNumStallCauses; ++c)
            w.key(stallCauseName(static_cast<StallCause>(c)))
                .value(by_cause[c]);
        w.end();
    };
    w.beginObject();
    w.key("format").value("autobraid-recording");
    w.key("version").value(1);
    w.key("circuit").value(circuit);
    w.key("policy").value(policy);
    w.key("backend").value(backend);
    w.key("grid_rows").value(grid_rows);
    w.key("grid_cols").value(grid_cols);
    w.key("makespan").value(makespan);
    w.key("stall_totals");
    stalls(stall_totals);

    w.key("gates").beginRows();
    for (size_t g = 0; g < gates.size(); ++g) {
        const GateRecord &rec = gates[g];
        w.beginObject().key("gate").value(g).key("kind").value(rec.kind);
        w.key("q0").value(rec.q0).key("q1").value(rec.q1);
        if (rec.ready != kNoCycle)
            w.key("ready").value(rec.ready);
        if (rec.dispatched != kNoCycle)
            w.key("dispatched").value(rec.dispatched);
        if (rec.retired != kNoCycle)
            w.key("retired").value(rec.retired);
        w.key("blocked_attempts").value(rec.blocked_attempts);
        w.key("stall");
        stalls(rec.stall);
        w.end();
    }
    w.end();

    w.key("blocked_events").beginRows();
    for (const BlockedEvent &ev : blocked)
        w.beginObject()
            .key("gate").value(ev.gate)
            .key("cycle").value(ev.cycle)
            .key("cause").value(stallCauseName(ev.cause))
            .end();
    w.end();

    w.key("vertex_busy_cycles").beginArray();
    for (uint64_t busy : vertex_busy_cycles)
        w.value(busy);
    w.end().end();
    return out;
}

FlightRecording
decodeRecording(const json::Value &doc)
{
    if (doc.stringOr("format", "") != "autobraid-recording")
        fatal("not an autobraid recording (missing "
              "\"format\":\"autobraid-recording\")");
    const uint64_t version = naturalAt(doc, "version");
    if (version != 1)
        fatal("unsupported recording version %llu",
              static_cast<unsigned long long>(version));

    FlightRecording rec;
    rec.circuit = text(doc, "circuit");
    rec.policy = text(doc, "policy");
    rec.backend = text(doc, "backend");
    rec.grid_rows =
        static_cast<int>(naturalAt(doc, "grid_rows", kIntLimit));
    rec.grid_cols =
        static_cast<int>(naturalAt(doc, "grid_cols", kIntLimit));
    rec.makespan = naturalAt(doc, "makespan");
    stalls(doc, "stall_totals", rec.stall_totals);

    const uint64_t vertices = static_cast<uint64_t>(rec.grid_rows) *
                              static_cast<uint64_t>(rec.grid_cols);
    const json::Array &busy = list(doc, "vertex_busy_cycles");
    if (busy.size() != vertices)
        fatal("recording field \"vertex_busy_cycles\" has %zu entries "
              "for grid_rows x grid_cols %dx%d",
              busy.size(), rec.grid_rows, rec.grid_cols);
    rec.vertex_busy_cycles.reserve(busy.size());
    for (const json::Value &v : busy)
        rec.vertex_busy_cycles.push_back(
            natural(v, "vertex_busy_cycles", kU64Limit));

    const json::Array &gates = list(doc, "gates");
    rec.gates.reserve(gates.size());
    for (const json::Value &g : gates) {
        if (naturalAt(g, "gate") != rec.gates.size())
            fatal("recording gate %zu is out of order",
                  rec.gates.size());
        GateRecord &gate = rec.gates.emplace_back();
        gate.kind = text(g, "kind");
        gate.q0 = operand(g, "q0", vertices);
        gate.q1 = operand(g, "q1", vertices);
        for (const auto &[key, cycle] :
             {std::pair{"ready", &gate.ready},
              std::pair{"dispatched", &gate.dispatched},
              std::pair{"retired", &gate.retired}})
            if (const json::Value *v = g.find(key))
                *cycle = natural(*v, key, kU64Limit);
        gate.blocked_attempts = static_cast<uint32_t>(
            naturalAt(g, "blocked_attempts", kU32Limit));
        stalls(g, "stall", gate.stall);
    }

    for (const json::Value &ev : list(doc, "blocked_events"))
        rec.blocked.push_back(BlockedEvent{naturalAt(ev, "gate"),
                                           naturalAt(ev, "cycle"),
                                           causeNamed(text(ev, "cause"))});
    return rec;
}

} // namespace telemetry
} // namespace autobraid
