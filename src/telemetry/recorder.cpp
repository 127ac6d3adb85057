#include "telemetry/recorder.hpp"

#include "common/json.hpp"

namespace autobraid {
namespace telemetry {

namespace {

/** Sentinel for "no pending cause" in FlightRecorder::pending_. */
constexpr uint8_t kNoPending = static_cast<uint8_t>(kNumStallCauses);

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

} // namespace telemetry
} // namespace autobraid
