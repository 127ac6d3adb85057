/**
 * @file
 * Unit tests for routing: path validation, multi-corner A*, the CX
 * interference graph, the stack-based finder (incl. the paper's Fig. 8
 * order-dependence and Fig. 14 size-7 LLG scenarios), and the greedy
 * baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "route/astar.hpp"
#include "route/greedy_finder.hpp"
#include "route/interference.hpp"
#include "route/stack_finder.hpp"

namespace autobraid {
namespace {

/** All-free blocked mask for @p g (the old always-false predicate). */
BlockedBitset
freeMask(const Grid &g)
{
    return noBlockedVertices(g);
}

/** Assert an outcome is fully routed with pairwise-disjoint paths. */
void
expectDisjointComplete(const RoutingOutcome &outcome,
                       const std::vector<CxTask> &tasks,
                       const Grid &grid)
{
    EXPECT_EQ(outcome.routed.size(), tasks.size());
    EXPECT_DOUBLE_EQ(outcome.ratio(), 1.0);
    std::set<VertexId> used;
    for (const auto &[idx, path] : outcome.routed) {
        EXPECT_EQ(path.validate(grid, tasks[idx].a, tasks[idx].b), "");
        for (VertexId v : path.vertices)
            EXPECT_TRUE(used.insert(v).second)
                << "vertex " << v << " used twice";
    }
}

TEST(Path, ValidateAcceptsGoodPath)
{
    Grid g(3, 3);
    Path p;
    p.vertices = {g.vid({0, 1}), g.vid({0, 2}), g.vid({1, 2})};
    EXPECT_EQ(p.validate(g, Cell{0, 0}, Cell{1, 2}), "");
}

TEST(Path, ValidateRejectsBadPaths)
{
    Grid g(3, 3);
    Path empty;
    EXPECT_NE(empty.validate(g, Cell{0, 0}, Cell{1, 1}), "");

    Path teleport;
    teleport.vertices = {g.vid({0, 0}), g.vid({2, 2})};
    EXPECT_NE(teleport.validate(g, Cell{0, 0}, Cell{1, 1}), "");

    Path revisit;
    revisit.vertices = {g.vid({0, 0}), g.vid({0, 1}), g.vid({0, 0})};
    EXPECT_NE(revisit.validate(g, Cell{0, 0}, Cell{0, 0}), "");

    Path wrong_end;
    wrong_end.vertices = {g.vid({0, 0}), g.vid({0, 1})};
    EXPECT_NE(wrong_end.validate(g, Cell{0, 0}, Cell{2, 2}), "");
}

TEST(AStar, ShortestPathLength)
{
    Grid g(4, 4);
    AStarRouter router(g);
    // Adjacent tiles share two corners: a single shared vertex works.
    auto p = router.route(Cell{0, 0}, Cell{0, 1}, freeMask(g));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->length(), 1u);

    // Diagonal tiles share one corner.
    p = router.route(Cell{0, 0}, Cell{1, 1}, freeMask(g));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->length(), 1u);

    // Distance-2 tiles: corner-to-corner needs 2 vertices.
    p = router.route(Cell{0, 0}, Cell{0, 2}, freeMask(g));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->length(), 2u);
}

TEST(AStar, PathIsValid)
{
    Grid g(6, 6);
    AStarRouter router(g);
    const auto p = router.route(Cell{0, 0}, Cell{5, 5}, freeMask(g));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->validate(g, Cell{0, 0}, Cell{5, 5}), "");
}

TEST(AStar, AvoidsBlockedVertices)
{
    Grid g(3, 3);
    AStarRouter router(g);
    // Block the middle column of vertices except the boundary rows.
    const auto blocked = materializeBlocked(g, [&g](VertexId v) {
        const Vertex vx = g.vertex(v);
        return vx.c == 2 && vx.r > 0 && vx.r < 3;
    });
    const auto p = router.route(Cell{1, 0}, Cell{1, 2}, blocked);
    ASSERT_TRUE(p.has_value());
    for (VertexId v : p->vertices)
        EXPECT_FALSE(blocked[static_cast<size_t>(v)]);
}

TEST(AStar, ReportsUnroutable)
{
    Grid g(3, 3);
    AStarRouter router(g);
    // Wall of blocked vertices across the whole grid.
    const auto blocked = materializeBlocked(
        g, [&g](VertexId v) { return g.vertex(v).c == 2; });
    EXPECT_FALSE(
        router.route(Cell{0, 0}, Cell{0, 2}, blocked).has_value());
}

TEST(AStar, CornerMasksRestrictEndpoints)
{
    Grid g(4, 4);
    AStarRouter router(g);
    const auto p = router.route(Cell{0, 0}, Cell{2, 2}, freeMask(g),
                                AStarRouter::kFixedCorner,
                                AStarRouter::kFixedCorner);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->front(), g.vid(Vertex{0, 0}));
    EXPECT_EQ(p->back(), g.vid(Vertex{2, 2}));
    // Fixed-corner paths are longer than all-corner paths here.
    const auto free_p = router.route(Cell{0, 0}, Cell{2, 2}, freeMask(g));
    EXPECT_LT(free_p->length(), p->length());
    EXPECT_THROW(router.route(Cell{0, 0}, Cell{1, 1}, freeMask(g),
                              0, AStarRouter::kAllCorners),
                 InternalError);
}

TEST(AStar, SameCellRejected)
{
    Grid g(3, 3);
    AStarRouter router(g);
    EXPECT_THROW(router.route(Cell{1, 1}, Cell{1, 1}, freeMask(g)),
                 InternalError);
}

TEST(AStar, RepeatedQueriesIndependent)
{
    Grid g(5, 5);
    AStarRouter router(g);
    for (int i = 0; i < 50; ++i) {
        const auto p = router.route(Cell{0, 0}, Cell{4, 4}, freeMask(g));
        ASSERT_TRUE(p.has_value());
        // Closest corners (1,1) and (4,4): 6 steps -> 7 vertices.
        EXPECT_EQ(p->length(), 7u);
    }
}

TEST(AStar, FloodCacheEndsWithItsClaim)
{
    // A wall of blocked vertices down vertex column 2 cuts tile (0,0)
    // off from tile (0,2), so the claim's query fails and its flood
    // is cached. A plain route() after the claim, with the wall gone,
    // must search afresh and find the path.
    Grid g(3, 3);
    AStarRouter router(g);
    const BlockedBitset wall = materializeBlocked(
        g, [&g](VertexId v) { return g.vertex(v).c == 2; });
    RoutingOutcome out;
    router.claim(wall, {0},
                 [&](size_t, const BlockedBitset &mask) {
                     return router.route(Cell{0, 0}, Cell{0, 2}, mask);
                 },
                 out);
    ASSERT_EQ(out.failed, std::vector<size_t>{0});
    const auto p = router.route(Cell{0, 0}, Cell{0, 2}, freeMask(g));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->validate(g, Cell{0, 0}, Cell{0, 2}), "");
}

TEST(Interference, GraphConstruction)
{
    // Two overlapping gates and one far away.
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{2, 2}),
        CxTask::make(1, Cell{1, 1}, Cell{3, 3}),
        CxTask::make(2, Cell{7, 7}, Cell{8, 8}),
    };
    InterferenceGraph ig(tasks);
    EXPECT_EQ(ig.size(), 3u);
    EXPECT_EQ(ig.degree(0), 1);
    EXPECT_EQ(ig.degree(1), 1);
    EXPECT_EQ(ig.degree(2), 0);
    EXPECT_EQ(ig.maxDegree(), 1);
}

TEST(Interference, RemovalUpdatesDegrees)
{
    // Star: task 0 intersects all others.
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{9, 9}),
        CxTask::make(1, Cell{1, 1}, Cell{2, 2}),
        CxTask::make(2, Cell{5, 5}, Cell{6, 6}),
        CxTask::make(3, Cell{8, 8}, Cell{9, 9}),
    };
    InterferenceGraph ig(tasks);
    EXPECT_EQ(ig.degree(0), 3);
    EXPECT_EQ(ig.maxDegreeNodes(), std::vector<size_t>{0});
    ig.remove(0);
    EXPECT_EQ(ig.size(), 3u);
    EXPECT_TRUE(ig.removed(0));
    EXPECT_EQ(ig.maxDegree(), 0);
    EXPECT_EQ(ig.activeNodes(), (std::vector<size_t>{1, 2, 3}));
    EXPECT_THROW(ig.remove(0), InternalError);
}

/**
 * Full-rescan reference for the peel queries, mirroring the original
 * implementation the bucket structure replaced. Fed the same removals,
 * it must agree with InterferenceGraph at every step.
 */
class NaivePeelReference
{
  public:
    explicit NaivePeelReference(const InterferenceGraph &ig)
        : removed_(ig.originalSize(), 0)
    {
        for (size_t i = 0; i < ig.originalSize(); ++i)
            degree_.push_back(ig.degree(i));
    }

    int
    maxDegree() const
    {
        int best = 0;
        for (size_t i = 0; i < degree_.size(); ++i)
            if (!removed_[i])
                best = std::max(best, degree_[i]);
        return best;
    }

    std::vector<size_t>
    maxDegreeNodes() const
    {
        const int best = maxDegree();
        std::vector<size_t> nodes;
        for (size_t i = 0; i < degree_.size(); ++i)
            if (!removed_[i] && degree_[i] == best)
                nodes.push_back(i);
        return nodes;
    }

    void
    remove(size_t i, const InterferenceGraph &ig)
    {
        removed_[i] = 1;
        for (size_t n : ig.allNeighbors(i))
            if (!removed_[n])
                --degree_[n];
        degree_[i] = 0;
    }

  private:
    std::vector<int> degree_;
    std::vector<uint8_t> removed_;
};

/** Random disjoint-cell CX tasks on @p grid. */
std::vector<CxTask>
randomLayer(const Grid &grid, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<CellId> cells(static_cast<size_t>(grid.numCells()));
    for (CellId c = 0; c < grid.numCells(); ++c)
        cells[static_cast<size_t>(c)] = c;
    rng.shuffle(cells);
    std::vector<CxTask> tasks;
    for (int i = 0;
         i < count && 2 * i + 1 < static_cast<int>(cells.size()); ++i)
        tasks.push_back(CxTask::make(
            static_cast<GateIdx>(i),
            grid.cell(cells[static_cast<size_t>(2 * i)]),
            grid.cell(cells[static_cast<size_t>(2 * i + 1)])));
    return tasks;
}

TEST(Interference, BucketPeelMatchesFullRescan)
{
    // Peel every layer to the bottom, asserting the bucket structure
    // reports the same max degree and the same ascending-index
    // candidate set as the full rescan at every single step, for both
    // tie-break ends of the candidate list.
    Grid grid(12, 12);
    for (uint64_t seed : {1u, 7u, 42u, 1337u}) {
        for (int count : {4, 16, 48, 70}) {
            const auto tasks = randomLayer(grid, count, seed);
            InterferenceGraph ig(tasks);
            NaivePeelReference ref(ig);
            bool pick_front = true;
            while (!ig.empty()) {
                ASSERT_EQ(ig.maxDegree(), ref.maxDegree())
                    << "seed " << seed << " count " << count;
                const auto got = ig.maxDegreeNodes();
                ASSERT_EQ(got, ref.maxDegreeNodes())
                    << "seed " << seed << " count " << count;
                const size_t victim =
                    pick_front ? got.front() : got.back();
                pick_front = !pick_front;
                ig.remove(victim);
                ref.remove(victim, ig);
            }
            EXPECT_EQ(ig.maxDegree(), 0);
            EXPECT_TRUE(ig.maxDegreeNodes().empty());
        }
    }
}

TEST(Interference, BucketQueriesInterleavedWithPartialPeel)
{
    // The stack finder stops peeling at maxDegree() <= 2 and then
    // queries degrees/neighbours of the residue; make sure a partial
    // peel leaves consistent state.
    Grid grid(10, 10);
    const auto tasks = randomLayer(grid, 40, 99);
    InterferenceGraph ig(tasks);
    NaivePeelReference ref(ig);
    while (ig.maxDegree() > 2) {
        const size_t victim = ig.maxDegreeNodes().front();
        ig.remove(victim);
        ref.remove(victim, ig);
    }
    EXPECT_LE(ig.maxDegree(), 2);
    EXPECT_EQ(ig.maxDegree(), ref.maxDegree());
    EXPECT_EQ(ig.maxDegreeNodes(), ref.maxDegreeNodes());
    for (size_t n : ig.activeNodes())
        EXPECT_LE(ig.degree(n), 2);
}

TEST(StackFinder, EmptyAndSingle)
{
    Grid g(4, 4);
    StackPathFinder finder(g);
    const auto empty = finder.findPaths({}, freeMask(g));
    EXPECT_TRUE(empty.routed.empty());
    EXPECT_DOUBLE_EQ(empty.ratio(), 1.0);

    std::vector<CxTask> one{CxTask::make(0, Cell{0, 0}, Cell{3, 3})};
    expectDisjointComplete(finder.findPaths(one, freeMask(g)), one, g);
}

TEST(StackFinder, Fig8FiveGatesAllRoute)
{
    // Paper Fig. 8: five CX gates whose greedy order fails but a good
    // order routes all. Recreate the geometry: a wide lattice with
    // nested/crossing pairs.
    Grid g(6, 6);
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{2, 0}, Cell{2, 5}), // A: long horizontal
        CxTask::make(1, Cell{0, 1}, Cell{1, 1}), // B
        CxTask::make(2, Cell{1, 2}, Cell{3, 2}), // C crosses A's line
        CxTask::make(3, Cell{1, 4}, Cell{3, 4}), // D crosses A's line
        CxTask::make(4, Cell{4, 3}, Cell{5, 3}), // E
    };
    StackPathFinder finder(g);
    expectDisjointComplete(finder.findPaths(tasks, freeMask(g)), tasks, g);
}

TEST(StackFinder, Fig14SevenGateLlgAllRoute)
{
    // Paper Fig. 14: one LLG of size 7 fully scheduled by the stack
    // finder. Seven mutually overlapping gates on an 8x8 grid.
    Grid g(8, 8);
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{7, 7}),
        CxTask::make(1, Cell{0, 7}, Cell{7, 0}),
        CxTask::make(2, Cell{1, 1}, Cell{6, 6}),
        CxTask::make(3, Cell{1, 6}, Cell{6, 1}),
        CxTask::make(4, Cell{2, 2}, Cell{5, 5}),
        CxTask::make(5, Cell{2, 5}, Cell{5, 2}),
        CxTask::make(6, Cell{3, 3}, Cell{4, 4}),
    };
    StackPathFinder finder(g);
    expectDisjointComplete(finder.findPaths(tasks, freeMask(g)), tasks, g);
}

TEST(StackFinder, RespectsExternalBlocking)
{
    Grid g(3, 3);
    StackPathFinder finder(g);
    std::vector<CxTask> tasks{CxTask::make(0, Cell{0, 0}, Cell{0, 2})};
    // Block everything: no route possible.
    const BlockedBitset all_blocked =
        materializeBlocked(g, [](VertexId) { return true; });
    const auto outcome = finder.findPaths(tasks, all_blocked);
    EXPECT_TRUE(outcome.routed.empty());
    EXPECT_EQ(outcome.failed.size(), 1u);
    EXPECT_DOUBLE_EQ(outcome.ratio(), 0.0);
}

TEST(StackFinder, NestedGatesAllRoute)
{
    // Theorem 2 scenario: strictly nested gates.
    Grid g(8, 8);
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{3, 3}, Cell{4, 4}),
        CxTask::make(1, Cell{2, 2}, Cell{5, 5}),
        CxTask::make(2, Cell{1, 1}, Cell{6, 6}),
        CxTask::make(3, Cell{0, 0}, Cell{7, 7}),
    };
    StackPathFinder finder(g);
    expectDisjointComplete(finder.findPaths(tasks, freeMask(g)), tasks, g);
}

TEST(StackFinder, ManyParallelNeighbours)
{
    // Disjoint neighbour pairs always all route (used by the Maslov
    // network phases).
    Grid g(6, 6);
    std::vector<CxTask> tasks;
    for (int r = 0; r < 6; ++r)
        for (int c = 0; c + 1 < 6; c += 2)
            tasks.push_back(CxTask::make(tasks.size(), Cell{r, c},
                                         Cell{r, c + 1}));
    StackPathFinder finder(g);
    expectDisjointComplete(finder.findPaths(tasks, freeMask(g)), tasks, g);
}

/** Assert two outcomes are byte-identical (order, paths, failures). */
void
expectSameOutcome(const RoutingOutcome &a, const RoutingOutcome &b)
{
    ASSERT_EQ(a.routed.size(), b.routed.size());
    for (size_t i = 0; i < a.routed.size(); ++i) {
        EXPECT_EQ(a.routed[i].first, b.routed[i].first) << i;
        EXPECT_EQ(a.routed[i].second.vertices,
                  b.routed[i].second.vertices)
            << i;
    }
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_DOUBLE_EQ(a.ratio(), b.ratio());
}

TEST(StackFinder, RouteJobsProduceIdenticalOutcomes)
{
    // The component-parallel contract: any worker count yields the
    // same outcome, bit for bit — across random task sets that mix
    // single- and multi-component instants, under random blocking.
    Grid g(12, 12);
    Rng rng(0x7ab5'2026ULL);
    StackPathFinder sequential(g, 1);
    StackPathFinder parallel(g, 8);
    for (int round = 0; round < 25; ++round) {
        std::vector<CxTask> tasks;
        const int n = rng.intIn(1, 40);
        while (static_cast<int>(tasks.size()) < n) {
            const Cell a{rng.intIn(0, 11), rng.intIn(0, 11)};
            const Cell b{rng.intIn(0, 11), rng.intIn(0, 11)};
            if (a == b)
                continue;
            tasks.push_back(CxTask::make(tasks.size(), a, b));
        }
        BlockedBitset blocked(static_cast<size_t>(g.numVertices()));
        for (size_t v = 0; v < blocked.size(); ++v)
            if (rng.chance(0.05))
                blocked.set(v);
        const auto seq = sequential.findPaths(tasks, blocked);
        const auto par = parallel.findPaths(tasks, blocked);
        expectSameOutcome(seq, par);
    }
}

TEST(StackFinder, ComponentClustersRouteIdenticallyAcrossJobs)
{
    // Four well-separated clusters form four interference components;
    // each must be routed independently and merged in component order
    // no matter how many workers participate.
    Grid g(10, 10);
    std::vector<CxTask> tasks;
    const Cell corners[4] = {{0, 0}, {0, 7}, {7, 0}, {7, 7}};
    for (const Cell &o : corners) {
        // A small crossing pattern inside each cluster.
        tasks.push_back(CxTask::make(tasks.size(), Cell{o.r, o.c},
                                     Cell{o.r + 2, o.c + 2}));
        tasks.push_back(CxTask::make(tasks.size(), Cell{o.r + 2, o.c},
                                     Cell{o.r, o.c + 2}));
        tasks.push_back(CxTask::make(tasks.size(), Cell{o.r + 1, o.c},
                                     Cell{o.r + 1, o.c + 2}));
        tasks.push_back(CxTask::make(tasks.size(), Cell{o.r, o.c + 1},
                                     Cell{o.r + 2, o.c + 1}));
    }
    StackPathFinder sequential(g, 1);
    const auto seq = sequential.findPaths(tasks, freeMask(g));
    // The clusters are deliberately over-subscribed (not every task
    // can route), so only validity and disjointness are asserted here;
    // the determinism check below is the point of the test.
    std::set<VertexId> used;
    for (const auto &[idx, path] : seq.routed) {
        EXPECT_EQ(path.validate(g, tasks[idx].a, tasks[idx].b), "");
        for (VertexId v : path.vertices)
            EXPECT_TRUE(used.insert(v).second)
                << "vertex " << v << " used twice";
    }
    EXPECT_GE(seq.routed.size(), 8u); // at least the two diagonals each
    for (int jobs : {2, 4, 8}) {
        StackPathFinder finder(g, jobs);
        expectSameOutcome(seq, finder.findPaths(tasks, freeMask(g)));
    }
}

TEST(GreedyFinder, DistanceOrderRoutesShortFirst)
{
    Grid g(6, 6);
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{5, 5}), // long
        CxTask::make(1, Cell{2, 2}, Cell{2, 3}), // short
    };
    GreedyPathFinder finder(g, GreedyOrder::Distance);
    const auto outcome = finder.findPaths(tasks, freeMask(g));
    ASSERT_EQ(outcome.routed.size(), 2u);
    // Short pair routed first.
    EXPECT_EQ(outcome.routed[0].first, 1u);
}

TEST(GreedyFinder, FixedCornerConflictsMore)
{
    // Two gates whose fixed (NW) corners coincide: only one can route
    // in fixed-corner mode; both route in all-corner mode.
    Grid g(4, 4);
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{1, 1}, Cell{0, 0}),
        CxTask::make(1, Cell{1, 0}, Cell{0, 1}),
    };
    GreedyPathFinder fixed(g, GreedyOrder::Distance, false);
    GreedyPathFinder free_corners(g, GreedyOrder::Distance, true);
    const auto fixed_out = fixed.findPaths(tasks, freeMask(g));
    const auto free_out = free_corners.findPaths(tasks, freeMask(g));
    EXPECT_EQ(free_out.routed.size(), 2u);
    EXPECT_LE(fixed_out.routed.size(), free_out.routed.size());
}

TEST(GreedyFinder, EmptyTaskListIsVacuousSuccess)
{
    // Audit companion to StackFinder.EmptyAndSingle: an empty task
    // list must report ratio 1.0 (vacuous success), not 0 — a 0 here
    // would spuriously trip the layout-optimizer threshold.
    Grid g(4, 4);
    for (GreedyOrder order :
         {GreedyOrder::Distance, GreedyOrder::Program,
          GreedyOrder::Largest, GreedyOrder::Criticality}) {
        GreedyPathFinder finder(g, order);
        const auto empty = finder.findPaths({}, freeMask(g));
        EXPECT_TRUE(empty.routed.empty());
        EXPECT_TRUE(empty.failed.empty());
        EXPECT_DOUBLE_EQ(empty.ratio(), 1.0)
            << "order " << static_cast<int>(order);
    }
}

TEST(GreedyFinder, OrderMattersOnCongestedLayer)
{
    // Largest-first blocks the lattice more than the stack finder on a
    // congested layer: the stack finder should never route fewer.
    Grid g(5, 5);
    std::vector<CxTask> tasks;
    Rng rng(9);
    for (int i = 0; i < 10; ++i) {
        Cell a{rng.intIn(0, 4), rng.intIn(0, 4)};
        Cell b{rng.intIn(0, 4), rng.intIn(0, 4)};
        if (a == b)
            b = Cell{(a.r + 1) % 5, a.c};
        tasks.push_back(CxTask::make(tasks.size(), a, b));
    }
    StackPathFinder stack(g);
    GreedyPathFinder largest(g, GreedyOrder::Largest, true);
    const auto s = stack.findPaths(tasks, freeMask(g));
    const auto l = largest.findPaths(tasks, freeMask(g));
    EXPECT_GE(s.routed.size(), l.routed.size());
}

} // namespace
} // namespace autobraid
