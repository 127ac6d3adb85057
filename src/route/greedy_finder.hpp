/**
 * @file
 * Greedy shortest-distance path finder — the "GP" baseline.
 *
 * Reimplements the essence of the best greedy policy of Javadi-Abhari et
 * al. [10], the paper's baseline: at each scheduling instant, route the
 * ready CX gates one at a time with shortest-path A*, prioritizing pairs
 * by distance, with no interference-graph ordering and no global view.
 * An alternative program-order mode is provided for the ordering
 * ablation bench.
 *
 * Like the stack finder, the ordering scratch and the router's claim
 * mask persist across findPaths() calls so the routing inner loop does
 * not allocate per dispatch instant.
 */

#ifndef AUTOBRAID_ROUTE_GREEDY_FINDER_HPP
#define AUTOBRAID_ROUTE_GREEDY_FINDER_HPP

#include "route/stack_finder.hpp"

namespace autobraid {

/** Task-ordering strategies for the greedy finder. */
enum class GreedyOrder
{
    Distance,    ///< closest pairs first (the paper's GP baseline)
    Program,     ///< first-come-first-served in task order
    Largest,     ///< farthest pairs first (adversarial ablation)
    Criticality, ///< highest-criticality first (another [10] policy)
};

/** Greedy baseline path finder. */
class GreedyPathFinder : public PathFinder
{
  public:
    /**
     * @param grid the routing grid
     * @param order task-ordering strategy
     * @param all_corners when false (the faithful baseline) braids are
     *        defect-to-defect: only the NW corner of each tile is a
     *        legal endpoint, without AutoBraid's 16 configurations.
     */
    explicit GreedyPathFinder(const Grid &grid,
                              GreedyOrder order = GreedyOrder::Distance,
                              bool all_corners = false);

    RoutingOutcome findPaths(const std::vector<CxTask> &tasks,
                             const BlockedBitset &blocked) override;

  private:
    AStarRouter router_;
    GreedyOrder order_;
    unsigned corner_mask_;

    // Persistent per-instant scratch, reused across findPaths calls.
    std::vector<size_t> order_scratch_;
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_GREEDY_FINDER_HPP
