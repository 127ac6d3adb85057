#include "place/initial.hpp"

namespace autobraid {

Placement
initialPlacement(const Circuit &circuit, const Grid &grid, Rng &rng,
                 const InitialPlacementConfig &config)
{
    const CouplingGraph coupling(circuit);

    if (config.use_linear_special && coupling.isMaxDegreeTwo())
        return linearPlacement(coupling, grid);

    Placement placement =
        config.use_partitioner
            ? partitionPlacement(coupling, grid, rng, config.leaf_cells)
            : Placement(grid, circuit.numQubits());

    if (config.use_annealer)
        placement = annealPlacement(circuit, std::move(placement), rng);
    return placement;
}

} // namespace autobraid
