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
 * Connected components of the interference graph are natural
 * independent units: the peel is degree-local, so the stack discipline
 * applied to each component separately equals the global discipline
 * restricted to that component. The finder therefore routes each
 * component against the caller's base blocked mask (a pure function of
 * the component and the mask, so components may run on worker threads)
 * and merges the proposals in ascending component order. Paths may
 * stray outside their component's bounding boxes, so a later
 * component's proposal can collide with an earlier one's claims; the
 * merge detects that and re-routes the whole component against the
 * accumulated mask on the merging thread. Everything that affects the
 * result — component order, per-component routing, merge repair — is
 * independent of the worker count, so any `jobs` value produces
 * byte-identical outcomes.
 *
 * All scratch state — the interference graph, the peel stack, the
 * routing order and the router's claim mask — persists across
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
    /** Per-thread routing scratch (router + peel buffers). */
    struct RouteScratch
    {
        explicit RouteScratch(const Grid &grid) : router(grid) {}

        AStarRouter router;
        InterferenceGraph ig;
        std::vector<size_t> stack;
        /** Routing order: the residual, then the stack LIFO. */
        std::vector<size_t> order;
        /** Component's tasks, ascending global task index. */
        std::vector<CxTask> comp_tasks;
        /** Global task index per local task. */
        std::vector<size_t> comp_index;
        /** What this worker threw, rethrown after the join. */
        std::exception_ptr error;
    };

    /**
     * Peel + route @p tasks (whose interference graph @p ig is already
     * built) against @p blocked using scratch @p s, appending results
     * to @p out by index into @p tasks.
     */
    static void runStack(const std::vector<CxTask> &tasks,
                         const BlockedBitset &blocked,
                         InterferenceGraph &ig,
                         RouteScratch &s, RoutingOutcome &out);

    const Grid *grid_;
    int jobs_ = 1;

    // Persistent per-instant scratch, reused across findPaths calls.
    InterferenceGraph ig_;
    std::vector<size_t> comp_id_;
    std::vector<std::vector<size_t>> comp_members_;
    std::vector<RoutingOutcome> proposals_;
    /** Base mask merged with all accepted claims (merge phase). */
    BlockedBitset merged_;
    /** scratch_[0] serves the calling thread; one more per worker. */
    std::vector<std::unique_ptr<RouteScratch>> scratch_;
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_STACK_FINDER_HPP
