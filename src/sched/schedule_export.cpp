#include "sched/schedule_export.hpp"

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/text.hpp"

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

    std::string out;
    out.reserve(512 + circuit.size() * 48 +
                result.trace.size() * 96);
    out += "{\n";
    out += "  \"format\": \"autobraid-schedule\",\n";
    out += "  \"version\": 1,\n";
    out += strformat("  \"circuit\": \"%s\",\n",
                     jsonEscape(circuit.name()).c_str());
    out += strformat("  \"policy\": \"%s\",\n",
                     policyName(info.policy));
    out += strformat("  \"backend\": \"%s\",\n",
                     backendCliName(result.backend));
    out += strformat("  \"distance\": %d,\n", info.distance);
    out += strformat("  \"grid_rows\": %d,\n", grid.rows());
    out += strformat("  \"grid_cols\": %d,\n", grid.cols());
    out += strformat("  \"num_qubits\": %d,\n", circuit.numQubits());
    out += strformat(
        "  \"channel_hold_cycles\": %llu,\n",
        static_cast<unsigned long long>(info.channel_hold_cycles));
    out += strformat("  \"used_maslov\": %s,\n",
                     info.used_maslov ? "true" : "false");
    out += strformat(
        "  \"swaps_inserted\": %zu,\n  \"braids_routed\": %zu,\n",
        result.swaps_inserted, result.braids_routed);
    out += strformat("  \"makespan\": %llu,\n",
                     static_cast<unsigned long long>(result.makespan));

    out += "  \"dead_vertices\": [";
    for (size_t i = 0; i < info.dead_vertices.size(); ++i) {
        if (i)
            out += ", ";
        out += strformat("%d", info.dead_vertices[i]);
    }
    out += "],\n";

    if (info.placement) {
        out += "  \"placement\": [";
        for (Qubit q = 0; q < circuit.numQubits(); ++q) {
            if (q)
                out += ", ";
            out += strformat("%d", info.placement->cellIdOf(q));
        }
        out += "],\n";
    }

    out += "  \"gates\": [\n";
    for (size_t g = 0; g < circuit.size(); ++g) {
        const Gate &gate = circuit.gate(g);
        out += strformat("    {\"kind\": \"%s\", \"q0\": %d, "
                         "\"q1\": %d}%s\n",
                         gateName(gate.kind), gate.q0, gate.q1,
                         g + 1 < circuit.size() ? "," : "");
    }
    out += "  ],\n";

    out += "  \"schedule\": [\n";
    for (size_t i = 0; i < result.trace.size(); ++i) {
        const TraceEntry &e = result.trace[i];
        out += strformat(
            "    {\"gate\": %lld, \"start\": %llu, "
            "\"finish\": %llu, \"release\": %llu",
            documentGate(e), static_cast<unsigned long long>(e.start),
            static_cast<unsigned long long>(e.finish),
            static_cast<unsigned long long>(documentRelease(e)));
        if (e.swap_a != kNoQubit || e.swap_b != kNoQubit)
            out += strformat(", \"swap_a\": %d, \"swap_b\": %d",
                             e.swap_a, e.swap_b);
        out += ", \"path\": [";
        for (size_t v = 0; v < e.path.vertices.size(); ++v) {
            if (v)
                out += ", ";
            out += strformat("%d", e.path.vertices[v]);
        }
        out += "]}";
        if (i + 1 < result.trace.size())
            out += ",";
        out += "\n";
    }
    out += "  ]\n";
    out += "}\n";
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
