/**
 * @file
 * JSON export of compilation reports, for downstream tooling
 * (plotting Fig. 16-18 style charts). The schedule itself is exported
 * by sched/schedule_export (autobraid_cli --schedule-out).
 */

#ifndef AUTOBRAID_VIZ_JSON_HPP
#define AUTOBRAID_VIZ_JSON_HPP

#include <string>

#include "compiler/report.hpp"
#include "lattice/cost_model.hpp"

namespace autobraid {
namespace viz {

/** Serialize a compile report (metadata + metrics) as a JSON object. */
std::string reportToJson(const CompileReport &report,
                         const CostModel &cost);

} // namespace viz
} // namespace autobraid

#endif // AUTOBRAID_VIZ_JSON_HPP
