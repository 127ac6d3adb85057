/**
 * @file
 * Simulated-annealing refinement of the initial placement
 * (paper §3.3, stage 2, method (1)).
 *
 * The annealer perturbs the partitioner's placement with random qubit
 * swaps/moves and accepts by the Metropolis rule, minimizing the number
 * of LLGs of size > 3 (weighted so that non-nested oversize groups —
 * the ones not covered by Theorems 1 and 2 — dominate the objective).
 * Costs are cached per concurrent-CX set. A proposal re-scores only the
 * sets that touch the moved qubits, each one whole: its task boxes are
 * rebuilt from the placement and merged by the LLG kernel
 * (llg/llg.hpp), all in scratch reused across proposals, so once that
 * scratch has grown no proposal allocates. The iteration
 * count comes from a fixed operation budget, so large circuits anneal
 * in bounded time.
 */

#ifndef AUTOBRAID_PLACE_ANNEALER_HPP
#define AUTOBRAID_PLACE_ANNEALER_HPP

#include "circuit/layers.hpp"
#include "common/rng.hpp"
#include "place/placement.hpp"

namespace autobraid {

/** Concurrent CX sets the annealer samples (evenly, by index). */
constexpr size_t kAnnealMaxSets = 64;

/**
 * LLG objective of @p placement over (a sample of) the circuit's
 * concurrent CX sets: 1000 * (oversize + 2 * non-nested-oversize) LLG
 * counts plus a small bbox-span locality tie-breaker. Lower is better.
 */
long llgObjective(const Circuit &circuit, const Placement &placement,
                  size_t max_sets = kAnnealMaxSets);

/** Count of LLGs with size > 3 across all concurrent sets (Table 1). */
long countOversizeLlgs(const Circuit &circuit,
                       const Placement &placement);

/** Anneal @p initial and return the best placement found. */
Placement annealPlacement(const Circuit &circuit, Placement initial,
                          Rng &rng);

} // namespace autobraid

#endif // AUTOBRAID_PLACE_ANNEALER_HPP
