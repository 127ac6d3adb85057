/**
 * @file
 * Dynamic layout optimizer (paper §3.3.2, "Layout Optimizer").
 *
 * Invoked when less than p% of the ready CX gates could be routed. It
 * selects qubit pairs to SWAP on the interference graph of the failed
 * gates: the gate interfering with the most other gates (ties: largest
 * bounding box) is paired with its most interfering neighbour; of the
 * four operand qubits, the exchanged pair is the one that most reduces
 * interference. Each tentative swap is kept only if the whole swap set
 * remains simultaneously routable (the stack-finder routing test
 * subsumes the Theorem 1/2 fast path — it accepts at least everything
 * the theorems guarantee). The process repeats until no unsettled gate
 * interferes with another.
 */

#ifndef AUTOBRAID_SCHED_LAYOUT_OPTIMIZER_HPP
#define AUTOBRAID_SCHED_LAYOUT_OPTIMIZER_HPP

#include <vector>

#include "place/placement.hpp"
#include "route/stack_finder.hpp"

namespace autobraid {

/** One proposed SWAP with its braiding path. */
struct PlannedSwap
{
    Qubit a = kNoQubit;
    Qubit b = kNoQubit;
    Path path;
};

/**
 * Propose a simultaneously routable swap set that untangles the
 * unroutable @p failed_tasks.
 *
 * @param finder routes each candidate swap set (the run's own finder)
 * @param failed_tasks CX gates the path finder could not place; ready
 *        gates, so no two share a qubit
 * @param placement current (pre-swap) qubit layout
 * @param blocked dead vertices and those held by in-flight regions
 * @param movable false for qubits that may not move (in-flight)
 * @return swaps with concrete paths; possibly empty.
 */
std::vector<PlannedSwap> proposeSwaps(
    PathFinder &finder, const std::vector<CxTask> &failed_tasks,
    const Placement &placement, const BlockedBitset &blocked,
    const std::vector<uint8_t> &movable);

} // namespace autobraid

#endif // AUTOBRAID_SCHED_LAYOUT_OPTIMIZER_HPP
