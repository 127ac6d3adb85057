#include "sched/schedule_export.hpp"

#include <algorithm>
#include <string>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace autobraid {

namespace {

/** Document gate index: an inserted SWAP (kNoGate) becomes -1. */
long long
documentGate(const TraceEntry &e)
{
    return e.gate == kNoGate ? -1LL : static_cast<long long>(e.gate);
}

/** Document release: 0 (never set) means the channel frees at finish. */
Cycles
documentRelease(const TraceEntry &e)
{
    return e.channel_release > 0 ? e.channel_release : e.finish;
}

void
requireInfo(const ScheduleExportInfo &info)
{
    require(info.circuit != nullptr,
            "schedule export: circuit is required");
    require(info.grid != nullptr, "schedule export: grid is required");
}

} // namespace

std::string
scheduleToJson(const ScheduleExportInfo &info,
               const ScheduleResult &result)
{
    requireInfo(info);
    const Circuit &circuit = *info.circuit;
    const Grid &grid = *info.grid;

    // Reserve the whole document so that it never regrows: 48 bytes a
    // gate row, 96 a schedule row besides its path, and the digits of
    // the largest vertex id plus a separator for each path vertex (a
    // lattice-surgery row carries a whole merge region).
    size_t path_vertices = 0;
    for (const TraceEntry &e : result.trace)
        path_vertices += e.path.vertices.size();
    const size_t vertex_bytes =
        2 + std::to_string(std::max(0, grid.numVertices() - 1)).size();
    std::string out;
    out.reserve(512 + circuit.size() * 48 + result.trace.size() * 96 +
                path_vertices * vertex_bytes);
    json::Writer w(out, json::Writer::Layout::Document);
    w.beginObject();
    w.key("format").value("autobraid-schedule");
    w.key("version").value(1);
    w.key("circuit").value(circuit.name());
    w.key("policy").value(policyName(info.policy));
    w.key("backend").value(backendCliName(result.backend));
    w.key("distance").value(info.distance);
    w.key("grid_rows").value(grid.rows());
    w.key("grid_cols").value(grid.cols());
    w.key("num_qubits").value(circuit.numQubits());
    w.key("channel_hold_cycles").value(info.channel_hold_cycles);
    w.key("used_maslov").value(info.used_maslov);
    w.key("swaps_inserted").value(result.swaps_inserted);
    w.key("braids_routed").value(result.braids_routed);
    w.key("makespan").value(result.makespan);

    w.key("dead_vertices").beginArray();
    for (VertexId v : info.dead_vertices)
        w.value(v);
    w.end();
    if (info.placement) {
        w.key("placement").beginArray();
        for (Qubit q = 0; q < circuit.numQubits(); ++q)
            w.value(info.placement->cellIdOf(q));
        w.end();
    }

    w.key("gates").beginRows();
    for (const Gate &gate : circuit.gates())
        w.beginObject()
            .key("kind").value(gateName(gate.kind))
            .key("q0").value(gate.q0)
            .key("q1").value(gate.q1)
            .end();
    w.end();

    w.key("schedule").beginRows();
    for (const TraceEntry &e : result.trace) {
        w.beginObject();
        w.key("gate").value(documentGate(e));
        w.key("start").value(e.start).key("finish").value(e.finish);
        w.key("release").value(documentRelease(e));
        if (e.swap_a != kNoQubit || e.swap_b != kNoQubit)
            w.key("swap_a").value(e.swap_a).key("swap_b").value(e.swap_b);
        w.key("path").beginArray();
        for (VertexId v : e.path.vertices)
            w.value(v);
        w.end().end();
    }
    w.end().end();
    return out;
}

certify::Schedule
scheduleDocument(const ScheduleExportInfo &info,
                 const ScheduleResult &result)
{
    requireInfo(info);
    const Circuit &circuit = *info.circuit;
    certify::Schedule s;
    s.circuit = circuit.name();
    s.policy = policyName(info.policy);
    s.backend = backendCliName(result.backend);
    s.distance = info.distance;
    s.grid_rows = info.grid->rows();
    s.grid_cols = info.grid->cols();
    s.num_qubits = circuit.numQubits();
    s.channel_hold_cycles = info.channel_hold_cycles;
    s.used_maslov = info.used_maslov;
    s.swaps_inserted = result.swaps_inserted;
    s.braids_routed = result.braids_routed;
    s.makespan = result.makespan;
    s.dead_vertices = info.dead_vertices;
    if (info.placement) {
        s.placement.emplace();
        for (Qubit q = 0; q < circuit.numQubits(); ++q)
            s.placement->push_back(info.placement->cellIdOf(q));
    }
    s.gates.reserve(circuit.size());
    for (const Gate &gate : circuit.gates()) {
        Gate g; // the document carries kind and operands only
        g.kind = gate.kind;
        g.q0 = gate.q0;
        g.q1 = gate.q1;
        s.gates.push_back(g);
    }
    s.entries.reserve(result.trace.size());
    for (const TraceEntry &e : result.trace)
        s.entries.push_back(certify::Entry{
            documentGate(e), e.start, e.finish, documentRelease(e),
            e.swap_a, e.swap_b, e.path.vertices});
    return s;
}

} // namespace autobraid
