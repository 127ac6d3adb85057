#include "viz/json.hpp"

#include "common/json.hpp"

namespace autobraid {
namespace viz {

std::string
reportToJson(const CompileReport &report, const CostModel &cost)
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    w.key("circuit").value(report.circuit_name);
    w.key("policy").value(policyName(report.policy));
    w.key("backend").value(backendName(report.backend));
    w.key("num_qubits").value(report.num_qubits);
    w.key("num_gates").value(report.num_gates);
    w.key("grid_side").value(report.grid_side);
    w.key("distance").value(cost.distance);
    w.key("critical_path_cycles").value(report.critical_path);
    w.key("makespan_cycles").value(report.result.makespan);
    w.key("makespan_us").fixed(report.micros(cost), 3);
    w.key("cp_ratio").fixed(report.cpRatio(), 6);
    w.key("braids").value(report.result.braids_routed);
    w.key("swaps").value(report.result.swaps_inserted);
    w.key("routing_failures").value(report.result.routing_failures);
    w.key("peak_utilization").fixed(report.result.peak_utilization, 6);
    w.key("avg_utilization").fixed(report.result.avg_utilization, 6);
    w.key("used_maslov").value(report.used_maslov);
    w.key("placement_seconds").fixed(report.placement_seconds, 6);
    w.key("compile_seconds").fixed(report.total_seconds, 6);
    w.key("passes").beginArray();
    for (const PassTiming &t : report.pass_timings)
        w.beginObject()
            .key("name").value(t.pass)
            .key("seconds").fixed(t.seconds, 6)
            .end();
    w.end().key("counters").beginObject();
    for (const auto &[name, value] : report.counters)
        w.key(name).value(value);
    w.end().end();
    return out;
}

} // namespace viz
} // namespace autobraid
