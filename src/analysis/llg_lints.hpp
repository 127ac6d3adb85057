/**
 * @file
 * LLG-theory lints (AB3xx family), from docs/llg-theory.md.
 *
 * For each concurrent CX layer under a placement, AB301 flags local
 * parallel groups that satisfy neither schedulability theorem — size
 * > 3 (Theorem 1 fails) and not strictly nested (Theorem 2 fails) —
 * so in-bounding-box routing is not guaranteed. AB302 flags the
 * Theorem 3 obstruction: four pairwise strictly-interfering CX gates
 * in one layer, which no schedule can route concurrently.
 *
 * Both are notes, not warnings: oversize LLGs are routine in dense
 * benchmarks and the scheduler handles them by serializing — the
 * lints quantify lost parallelism, they do not flag defects.
 */

#ifndef AUTOBRAID_ANALYSIS_LLG_LINTS_HPP
#define AUTOBRAID_ANALYSIS_LLG_LINTS_HPP

#include "analysis/diagnostics.hpp"
#include "circuit/circuit.hpp"
#include "place/placement.hpp"

namespace autobraid {
namespace lint {

/**
 * Run AB301/AB302 over every concurrent CX layer of @p circuit under
 * @p placement. The first four findings of each code are reported
 * individually and the rest as one aggregate note; layers of more
 * than 256 gates skip the O(n^3) AB302 clique search. Exports metrics
 * `llg_hard_total` (AB301 instances) and `llg_clique_layers` (layers
 * with a Theorem 3 obstruction).
 */
void lintLlgs(const Circuit &circuit, const Placement &placement,
              DiagnosticEngine &engine);

} // namespace lint
} // namespace autobraid

#endif // AUTOBRAID_ANALYSIS_LLG_LINTS_HPP
