/**
 * @file
 * Stage-2 initial placement pipeline (paper Fig. 10).
 *
 * Builds the coupling graph, runs the recursive-bisection partitioner
 * (METIS stand-in), and fine-tunes with either (1) simulated annealing on
 * the LLG objective, or (2) the special-case snake layout when the
 * coupling graph has maximal degree two. Each stage can be disabled to
 * reproduce the paper's "before LLG optimization" ablation (Table 1).
 */

#ifndef AUTOBRAID_PLACE_INITIAL_HPP
#define AUTOBRAID_PLACE_INITIAL_HPP

#include "place/annealer.hpp"
#include "place/linear.hpp"
#include "place/partitioner.hpp"

namespace autobraid {

/** Configuration of the initial-placement pipeline. */
struct InitialPlacementConfig
{
    bool use_partitioner = true; ///< METIS-style recursive bisection
    bool use_annealer = true;    ///< LLG-objective simulated annealing
    bool use_linear_special = true; ///< snake layout when max degree <= 2
    int leaf_cells = 1; ///< partitionPlacement's leaf size (4: baseline)
};

/** Compute the initial placement for @p circuit on @p grid. */
Placement initialPlacement(const Circuit &circuit, const Grid &grid,
                           Rng &rng,
                           const InitialPlacementConfig &config = {});

} // namespace autobraid

#endif // AUTOBRAID_PLACE_INITIAL_HPP
