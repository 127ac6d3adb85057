#include "sched/validator.hpp"

#include <optional>

#include "analysis/certify.hpp"
#include "circuit/circuit.hpp"
#include "sched/schedule_export.hpp"

namespace autobraid {

void
ValidationReport::fail(std::string message)
{
    ok = false;
    errors.push_back(std::move(message));
}

std::string
ValidationReport::toString() const
{
    std::string out;
    for (const std::string &e : errors) {
        if (!out.empty())
            out += "\n";
        out += e;
    }
    return out;
}

ValidationReport
validateSchedule(const Circuit &circuit, const ScheduleResult &result,
                 const CostModel &cost, const Grid *grid)
{
    ValidationReport report;
    if (!result.valid) {
        report.fail("result is marked invalid");
        return report;
    }
    if (result.trace.empty()) {
        report.fail(
            "no trace recorded; enable SchedulerConfig::record_trace");
        return report;
    }
    std::optional<Grid> fallback;
    if (grid == nullptr)
        grid = &fallback.emplace(Grid::forQubits(circuit.numQubits()));
    ScheduleExportInfo info;
    info.circuit = &circuit;
    info.grid = grid;
    info.distance = cost.distance;
    const certify::Certificate cert =
        certify::certifySchedule(scheduleDocument(info, result));
    for (const certify::Violation &v : cert.violations)
        report.fail(v.toString());
    return report;
}

} // namespace autobraid
