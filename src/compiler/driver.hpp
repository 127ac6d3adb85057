/**
 * @file
 * Compiler driver — the library's main entry points.
 *
 * compileCircuit() validates the options, assembles the standard pass
 * pipeline (PassManager::standardPipeline), and runs it; for custom
 * pipelines use runPassPipeline() with your own PassManager.
 */

#ifndef AUTOBRAID_COMPILER_DRIVER_HPP
#define AUTOBRAID_COMPILER_DRIVER_HPP

#include <utility>
#include <vector>

#include "compiler/options.hpp"
#include "compiler/pass_manager.hpp"
#include "compiler/report.hpp"
#include "lattice/surface_code.hpp"

namespace autobraid {

/** Compile @p circuit through the standard pass pipeline. */
CompileReport compileCircuit(const Circuit &circuit,
                             const CompileOptions &options = {});

/**
 * Compile @p circuit through a caller-assembled @p passes pipeline.
 * The options are validated first, exactly as in compileCircuit().
 */
CompileReport runPassPipeline(const Circuit &circuit,
                              const CompileOptions &options,
                              const PassManager &passes);

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

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_DRIVER_HPP
