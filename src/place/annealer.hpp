/**
 * @file
 * Simulated-annealing refinement of the initial placement
 * (paper §3.3, stage 2, method (1)).
 *
 * The annealer perturbs the partitioner's placement with random qubit
 * swaps/moves and accepts by the Metropolis rule, minimizing the number
 * of LLGs of size > 3 (weighted so that non-nested oversize groups —
 * the ones not covered by Theorems 1 and 2 — dominate the objective).
 * One set scorer, which llgObjective() and countOversizeLlgs() use as
 * well, keeps every sampled concurrent-CX set's task boxes and span for
 * the current placement. The CX gates of one set share no qubit, so a
 * proposal patches at most one box per set for each qubit it moves,
 * re-scores only the sets whose boxes changed, and restores those boxes
 * if it is rejected. A set of at most three gates costs its span alone
 * (no LLG of size > 3 fits in it); a larger one is merged by the LLG
 * kernel (llg/llg.hpp). All of it runs in scratch reused across
 * proposals, so once that scratch has grown no proposal allocates. The
 * iteration count comes from a fixed operation budget, so large
 * circuits anneal in bounded time.
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
