/**
 * @file
 * ASAP layering of circuits.
 *
 * A layer is the set of gates with equal unit-latency ASAP depth — the
 * "theoretically concurrent" gates the paper analyzes. The LLG
 * characterization (paper §3.3.1) and the placement annealer both operate
 * on the per-layer sets of concurrent CX gates.
 */

#ifndef AUTOBRAID_CIRCUIT_LAYERS_HPP
#define AUTOBRAID_CIRCUIT_LAYERS_HPP

#include <vector>

#include "circuit/circuit.hpp"

namespace autobraid {

/**
 * Partition all gates into unit-latency ASAP layers.
 *
 * @return one vector of gate indices per layer, in depth order; every gate
 *         appears exactly once.
 */
std::vector<std::vector<GateIdx>> asapLayers(const Circuit &circuit);

/**
 * The per-layer sets of concurrent braid-requiring gates (CX and Swap).
 * Layers with no such gates are dropped. With @p max_sets > 0, at most
 * that many sets are built, sampled evenly by index from the full list
 * (stride total / max_sets) and kept in layer order.
 */
std::vector<std::vector<GateIdx>>
concurrentCxSets(const Circuit &circuit, size_t max_sets = 0);

} // namespace autobraid

#endif // AUTOBRAID_CIRCUIT_LAYERS_HPP
