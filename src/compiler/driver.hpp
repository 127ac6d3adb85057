/**
 * @file
 * Compiler driver — the library's main entry points.
 *
 * compileCircuit() validates the options and runs the AutoBraid stages
 * (paper Fig. 10) in one fixed order: parallelism-analysis,
 * initial-placement, lint, schedule, maslov-fallback, validate, report,
 * schedule-lint, schedule-export. The two lint stages run only when
 * CompileOptions::lint.level is not Off, schedule-export only when
 * CompileOptions::schedule_out is set. Each stage appends one
 * PassTiming to the report; see docs/driver.md.
 */

#ifndef AUTOBRAID_COMPILER_DRIVER_HPP
#define AUTOBRAID_COMPILER_DRIVER_HPP

#include <utility>
#include <vector>

#include "compiler/options.hpp"
#include "compiler/report.hpp"
#include "lattice/surface_code.hpp"
#include "sched/schedule_export.hpp"

namespace autobraid {

/** Compile @p circuit through the fixed stage sequence. */
CompileReport compileCircuit(const Circuit &circuit,
                             const CompileOptions &options = {});

/**
 * The paper's p-sensitivity sweep: compile with AutobraidFull at each
 * threshold in @p thresholds (default 0%..90% in 10% steps) and return
 * one report per value (Fig. 18).
 */
std::vector<std::pair<double, CompileReport>> sweepPThreshold(
    const Circuit &circuit, CompileOptions options,
    const std::vector<double> &thresholds = {});

/** Physical-qubit budget of a report's grid at distance d. */
long physicalQubits(const CompileReport &report,
                    const SurfaceCodeParams &params, int distance);

/**
 * The export facts of one compile of @p circuit on @p grid (pointers
 * into both), as the schedule-export stage writes them. @p initial,
 * the initial placement, is embedded only while no qubit moved (no
 * swap network, inserted SWAP or relayout): exactly when the
 * certifier's channel bound is sound.
 */
ScheduleExportInfo scheduleExportInfo(const Circuit &circuit,
                                      const Grid &grid,
                                      const CompileOptions &options,
                                      const CompileReport &report,
                                      const Placement *initial = nullptr);

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_DRIVER_HPP
