/**
 * @file
 * Stack-based path finder (paper Fig. 13).
 *
 * Given the concurrent CX gates of one scheduling instant, the finder:
 *  1. builds the CX interference graph;
 *  2. repeatedly removes the maximum-degree node (ties: largest
 *     bounding-box area) and pushes it on a stack, until the maximum
 *     degree is <= 2;
 *  3. routes the remaining low-interference gates first (small bounding
 *     boxes first, so short-distance pairs are handled locally);
 *  4. pops the stack LIFO, routing each gate with A* over the vertices
 *     that remain free.
 *
 * The LIFO order guarantees that gates whose long paths could partition
 * the lattice are placed last, and it naturally handles the strictly
 * nested case of Theorem 2 (the enclosing, largest-area gate is routed
 * last).
 *
 * The finder peels the instant's one interference graph once and
 * builds one routing order from it. Connected components of the graph
 * only split the claim: each claims its slice of the order against the
 * caller's base blocked mask (a pure function of the slice and the
 * mask, so components may claim on worker threads), and the proposals
 * merge in ascending component order. Each slice is the order the
 * component's own peel would give: components share no edge, so a
 * removal in one never changes a degree in another; the global pick
 * (highest degree, then largest area, then smallest index) that falls
 * in a component is that component's own pick; and a stable sort
 * restricted to a subset keeps the subset's order. Paths may stray
 * outside their component's bounding boxes, so a later component's
 * proposal can collide with an earlier one's claims; the merge detects
 * that and re-claims the component's slice against the accumulated
 * mask on the merging thread. Nothing that affects the result depends
 * on the worker count, so any `jobs` value produces byte-identical
 * outcomes, and the workers report into the caller's telemetry sink,
 * so its metrics do not depend on it either.
 *
 * All scratch state — the interference graph, the peel stack, the
 * routing order and each router's claim mask — persists across
 * findPaths() calls, so the scheduler's routing inner loop is
 * allocation-free across dispatch instants.
 */

#ifndef AUTOBRAID_ROUTE_STACK_FINDER_HPP
#define AUTOBRAID_ROUTE_STACK_FINDER_HPP

#include <exception>
#include <memory>
#include <vector>

#include "route/astar.hpp"
#include "route/interference.hpp"

namespace autobraid {

/** Common interface so the scheduler can swap policies. */
class PathFinder
{
  public:
    virtual ~PathFinder() = default;

    /**
     * Route @p tasks simultaneously. Paths must be vertex-disjoint with
     * each other and avoid externally @p blocked vertices (one bit per
     * grid vertex, set = unavailable).
     */
    virtual RoutingOutcome findPaths(const std::vector<CxTask> &tasks,
                                     const BlockedBitset &blocked) = 0;
};

/** The AutoBraid stack-based finder. */
class StackPathFinder : public PathFinder
{
  public:
    /**
     * @param grid the routing lattice
     * @param jobs worker threads for component-parallel routing; 1 =
     *        route every component on the calling thread. The outcome
     *        is byte-identical for every value.
     */
    explicit StackPathFinder(const Grid &grid, int jobs = 1);

    RoutingOutcome findPaths(const std::vector<CxTask> &tasks,
                             const BlockedBitset &blocked) override;

  private:
    /** One routing worker: its router and what it threw. */
    struct Worker
    {
        explicit Worker(const Grid &grid) : router(grid) {}

        AStarRouter router;
        /** Rethrown after the join. */
        std::exception_ptr error;
    };

    const Grid *grid_;
    int jobs_ = 1;

    // Persistent per-instant scratch, reused across findPaths calls.
    InterferenceGraph ig_;
    std::vector<size_t> comp_id_;
    std::vector<size_t> stack_;
    /** The routing order: the residual by area, then the stack LIFO. */
    std::vector<size_t> order_;
    /** order_ grouped by component, order kept within each; component
     * c's slice is [comp_start_[c], comp_start_[c + 1]). */
    std::vector<size_t> by_comp_;
    std::vector<size_t> comp_start_;
    std::vector<RoutingOutcome> proposals_;
    /** Base mask merged with all accepted claims (merge phase). */
    BlockedBitset merged_;
    /** workers_[0] serves the calling thread; one more per thread. */
    std::vector<std::unique_ptr<Worker>> workers_;
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_STACK_FINDER_HPP
