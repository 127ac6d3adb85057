#include "analysis/lint.hpp"

#include "place/placement.hpp"

namespace autobraid {
namespace lint {

std::vector<GateIdx>
braidGates(const Circuit &circuit)
{
    std::vector<GateIdx> out;
    for (GateIdx i = 0; i < circuit.size(); ++i)
        if (needsBraid(circuit.gate(i).kind))
            out.push_back(i);
    return out;
}

void
runCircuitAnalyses(const Circuit &circuit, const Grid &grid,
                   const std::vector<VertexId> &dead,
                   const Placement *placement,
                   DiagnosticEngine &engine,
                   const GateProvenance *provenance,
                   const LintRunConfig &config)
{
    lintCircuit(circuit, engine, provenance, config.reset_gates);
    lintLayout(grid, dead, engine);
    if (placement) {
        const std::vector<CxTask> tasks =
            placement->tasks(circuit, braidGates(circuit));
        if (config.hold > 0)
            lintChannelCapacity(grid, dead, tasks, config.hold,
                                engine);
        lintSurgeryCapacity(grid, dead, tasks, engine);
        lintLlgs(circuit, *placement, engine);
    }
}

void
runProgramAnalyses(const qasm::Program &program,
                   DiagnosticEngine &engine, const std::string &file)
{
    lintProgram(program, engine, file);
}

} // namespace lint
} // namespace autobraid
