#include "viz/json.hpp"

#include "common/text.hpp"

namespace autobraid {
namespace viz {

std::string
traceToJson(const ScheduleResult &result)
{
    std::string out = "[";
    bool first = true;
    for (const TraceEntry &e : result.trace) {
        if (!first)
            out += ",";
        first = false;
        out += "{";
        if (e.gate == kNoGate)
            out += strformat("\"kind\":\"swap\",\"a\":%d,\"b\":%d,",
                             e.swap_a, e.swap_b);
        else
            out += strformat("\"kind\":\"gate\",\"gate\":%llu,",
                             static_cast<unsigned long long>(e.gate));
        out += strformat("\"start\":%llu,\"finish\":%llu",
                         static_cast<unsigned long long>(e.start),
                         static_cast<unsigned long long>(e.finish));
        if (!e.path.empty()) {
            out += ",\"path\":[";
            for (size_t i = 0; i < e.path.vertices.size(); ++i) {
                if (i)
                    out += ",";
                out += std::to_string(e.path.vertices[i]);
            }
            out += "]";
        }
        out += "}";
    }
    out += "]";
    return out;
}

std::string
reportToJson(const CompileReport &report, const CostModel &cost,
             bool include_trace)
{
    std::string out = "{";
    out += strformat("\"circuit\":\"%s\",",
                     jsonEscape(report.circuit_name).c_str());
    out += strformat("\"policy\":\"%s\",", policyName(report.policy));
    out += strformat("\"backend\":\"%s\",",
                     backendName(report.backend));
    out += strformat("\"num_qubits\":%d,", report.num_qubits);
    out += strformat("\"num_gates\":%zu,", report.num_gates);
    out += strformat("\"grid_side\":%d,", report.grid_side);
    out += strformat("\"distance\":%d,", cost.distance);
    out += strformat(
        "\"critical_path_cycles\":%llu,",
        static_cast<unsigned long long>(report.critical_path));
    out += strformat(
        "\"makespan_cycles\":%llu,",
        static_cast<unsigned long long>(report.result.makespan));
    out += strformat("\"makespan_us\":%.3f,", report.micros(cost));
    out += strformat("\"cp_ratio\":%.6f,", report.cpRatio());
    out += strformat("\"braids\":%zu,", report.result.braids_routed);
    out += strformat("\"swaps\":%zu,", report.result.swaps_inserted);
    out += strformat("\"routing_failures\":%zu,",
                     report.result.routing_failures);
    out += strformat("\"peak_utilization\":%.6f,",
                     report.result.peak_utilization);
    out += strformat("\"avg_utilization\":%.6f,",
                     report.result.avg_utilization);
    out += strformat("\"used_maslov\":%s,",
                     report.used_maslov ? "true" : "false");
    out += strformat("\"placement_seconds\":%.6f,",
                     report.placement_seconds);
    out += strformat("\"compile_seconds\":%.6f,",
                     report.total_seconds);
    out += "\"passes\":[";
    for (size_t i = 0; i < report.pass_timings.size(); ++i) {
        if (i)
            out += ",";
        out += strformat(
            "{\"name\":\"%s\",\"seconds\":%.6f}",
            jsonEscape(report.pass_timings[i].pass).c_str(),
            report.pass_timings[i].seconds);
    }
    out += "],\"counters\":{";
    bool first_counter = true;
    for (const auto &[name, value] : report.counters) {
        if (!first_counter)
            out += ",";
        first_counter = false;
        out += strformat("\"%s\":%ld", jsonEscape(name).c_str(),
                         value);
    }
    out += "}";
    if (include_trace && !report.result.trace.empty()) {
        out += ",\"trace\":";
        out += traceToJson(report.result);
    }
    out += "}";
    return out;
}

} // namespace viz
} // namespace autobraid
