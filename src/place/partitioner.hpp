/**
 * @file
 * Locality-preserving initial placement via recursive graph bisection.
 *
 * Stand-in for METIS (paper §3.3, stage 2): recursively bisect the qubit
 * coupling graph, assigning each half to one half of the current
 * rectangular tile region, so frequently interacting qubits land in
 * compact regions. Each bisection greedily grows one side from a
 * well-connected seed (greedy graph growing, as in METIS's GGGP) and then
 * applies a bounded pairwise-swap refinement pass to reduce the cut.
 */

#ifndef AUTOBRAID_PLACE_PARTITIONER_HPP
#define AUTOBRAID_PLACE_PARTITIONER_HPP

#include "circuit/coupling.hpp"
#include "common/rng.hpp"
#include "place/placement.hpp"

namespace autobraid {

/**
 * Compute a locality-preserving placement of the coupling graph's qubits
 * onto @p grid. Recursion stops when a region has at most
 * @p leaf_cells tiles, and qubits are assigned arbitrarily within it:
 * 1 places every qubit exactly; 4 mimics a METIS-style mapping that
 * partitions well but does not arrange qubits inside a partition (the
 * paper baseline's "initM").
 */
Placement partitionPlacement(const CouplingGraph &coupling,
                             const Grid &grid, Rng &rng,
                             int leaf_cells = 1);

/**
 * Bisect @p nodes (subset of coupling-graph vertices) into two halves of
 * sizes @p left_size and nodes.size() - left_size, minimizing the weight
 * of edges crossing the cut. Exposed for unit testing.
 */
std::pair<std::vector<Qubit>, std::vector<Qubit>>
bisect(const CouplingGraph &coupling, const std::vector<Qubit> &nodes,
       size_t left_size, Rng &rng);

} // namespace autobraid

#endif // AUTOBRAID_PLACE_PARTITIONER_HPP
