/**
 * @file
 * One-stop lint driver (umbrella for the AB1xx/AB2xx/AB3xx families).
 *
 * The compiler's lint stage and the standalone `autobraid_lint` tool
 * both funnel through runCircuitAnalyses(): circuit lints, layout
 * lints against the configured dead-vertex set, the channel-capacity
 * bound under the given placement, and the LLG-theory lints.
 * runProgramAnalyses() adds the AST-level lints when the circuit came
 * from an OpenQASM file.
 */

#ifndef AUTOBRAID_ANALYSIS_LINT_HPP
#define AUTOBRAID_ANALYSIS_LINT_HPP

#include "analysis/circuit_lints.hpp"
#include "analysis/layout_lints.hpp"
#include "analysis/llg_lints.hpp"

namespace autobraid {

class Placement;

namespace lint {

/** Per-input settings of one lint run. */
struct LintRunConfig
{
    /** Measure gates that lower a `reset` (see lintCircuit). */
    const std::vector<GateIdx> *reset_gates = nullptr;
    /** Channel occupancy per braid; 0 derives nothing (no AB202). */
    Cycles hold = 0;
};

/** Gate indices of @p circuit that require a braiding path. */
std::vector<GateIdx> braidGates(const Circuit &circuit);

/**
 * Run every circuit-level analysis family into @p engine: AB1xx on
 * the gate list, AB2xx on @p grid + @p dead (the channel bound and
 * the AB204 surgery-capacity check need a non-null @p placement; the
 * bound additionally needs config.hold > 0), AB3xx on the placement's
 * concurrent layers (when @p placement is non-null).
 */
void runCircuitAnalyses(const Circuit &circuit, const Grid &grid,
                        const std::vector<VertexId> &dead,
                        const Placement *placement,
                        DiagnosticEngine &engine,
                        const GateProvenance *provenance = nullptr,
                        const LintRunConfig &config = {});

/** Run the AST-level analyses (AB101-AB105, AB109). */
void runProgramAnalyses(const qasm::Program &program,
                        DiagnosticEngine &engine,
                        const std::string &file = "");

} // namespace lint
} // namespace autobraid

#endif // AUTOBRAID_ANALYSIS_LINT_HPP
