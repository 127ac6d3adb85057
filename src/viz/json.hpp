/**
 * @file
 * JSON export of compilation reports and schedule traces, for
 * downstream tooling (plotting Fig. 16-18 style charts, waveform-style
 * schedule viewers). Hand-rolled serialization — no external
 * dependencies.
 */

#ifndef AUTOBRAID_VIZ_JSON_HPP
#define AUTOBRAID_VIZ_JSON_HPP

#include <string>

#include "compiler/report.hpp"
#include "lattice/cost_model.hpp"

namespace autobraid {
namespace viz {

/**
 * Serialize a compile report (metadata + metrics) as a JSON object.
 * The trace is included when present unless @p include_trace is
 * false.
 */
std::string reportToJson(const CompileReport &report,
                         const CostModel &cost,
                         bool include_trace = true);

/** Serialize just a schedule trace as a JSON array. */
std::string traceToJson(const ScheduleResult &result);

} // namespace viz
} // namespace autobraid

#endif // AUTOBRAID_VIZ_JSON_HPP
