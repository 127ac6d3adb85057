/**
 * @file
 * Unit tests for routing: path validation, multi-corner A*, the CX
 * interference graph, the stack-based finder (incl. the paper's Fig. 8
 * order-dependence and Fig. 14 size-7 LLG scenarios), and the greedy
 * baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "route/astar.hpp"
#include "route/greedy_finder.hpp"
#include "route/interference.hpp"
#include "route/stack_finder.hpp"
#include "stack_finder_reference.hpp"
#include "telemetry/telemetry.hpp"

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
    const size_t order[] = {0};
    router.claim(wall, order,
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

/**
 * Full-rescan reference for the peel queries, mirroring the original
 * implementation the bucket structure replaced. It builds its own
 * adjacency from BBox::intersects, so it shares nothing with the
 * bitmap under test; fed the same removals, it must agree with
 * InterferenceGraph at every step.
 */
class NaivePeelReference
{
  public:
    explicit NaivePeelReference(const std::vector<CxTask> &tasks)
        : tasks_(tasks), degree_(tasks.size(), 0),
          removed_(tasks.size(), 0)
    {
        for (size_t i = 0; i < tasks.size(); ++i)
            for (size_t j = 0; j < tasks.size(); ++j)
                if (i != j && tasks[i].bbox.intersects(tasks[j].bbox))
                    ++degree_[i];
    }

    int degree(size_t i) const { return degree_[i]; }

    int
    maxDegree() const
    {
        int best = 0;
        for (size_t i = 0; i < degree_.size(); ++i)
            if (!removed_[i])
                best = std::max(best, degree_[i]);
        return best;
    }

    /** Remaining max-degree nodes, ascending. */
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

    /** The max-degree node of largest area, smallest index on ties. */
    size_t
    peelPick() const
    {
        size_t pick = SIZE_MAX;
        for (const size_t i : maxDegreeNodes())
            if (pick == SIZE_MAX ||
                tasks_[i].bbox.area() > tasks_[pick].bbox.area())
                pick = i;
        return pick;
    }

    void
    remove(size_t i)
    {
        removed_[i] = 1;
        for (size_t j = 0; j < tasks_.size(); ++j)
            if (j != i && !removed_[j] &&
                tasks_[i].bbox.intersects(tasks_[j].bbox))
                --degree_[j];
        degree_[i] = 0;
    }

  private:
    const std::vector<CxTask> &tasks_;
    std::vector<int> degree_;
    std::vector<uint8_t> removed_;
};

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
    NaivePeelReference ref(tasks);
    EXPECT_EQ(ig.degree(0), 3);
    EXPECT_EQ(ig.maxDegree(), ref.maxDegree());
    EXPECT_EQ(ig.peelPick(tasks), 0u);
    EXPECT_EQ(ref.peelPick(), 0u);
    ig.remove(0);
    ref.remove(0);
    EXPECT_EQ(ig.size(), 3u);
    EXPECT_TRUE(ig.removed(0));
    EXPECT_EQ(ig.maxDegree(), 0);
    EXPECT_EQ(ref.maxDegree(), 0);
    // Every survivor has degree 0 and area 4: the smallest index wins.
    EXPECT_EQ(ig.peelPick(tasks), 1u);
    EXPECT_EQ(ref.peelPick(), 1u);
    std::vector<size_t> active;
    ig.activeNodes(active);
    EXPECT_EQ(active, (std::vector<size_t>{1, 2, 3}));
    EXPECT_THROW(ig.remove(0), InternalError);
}

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
    // reports the same max degree and the same peel pick as the full
    // rescan at every single step. Victims come in arbitrary order:
    // alternately the reference's first and last max-degree node.
    Grid grid(12, 12);
    for (uint64_t seed : {1u, 7u, 42u, 1337u}) {
        for (int count : {4, 16, 48, 70}) {
            const auto tasks = randomLayer(grid, count, seed);
            InterferenceGraph ig(tasks);
            NaivePeelReference ref(tasks);
            bool pick_front = true;
            while (!ig.empty()) {
                ASSERT_EQ(ig.maxDegree(), ref.maxDegree())
                    << "seed " << seed << " count " << count;
                ASSERT_EQ(ig.peelPick(tasks), ref.peelPick())
                    << "seed " << seed << " count " << count;
                const auto candidates = ref.maxDegreeNodes();
                const size_t victim =
                    pick_front ? candidates.front() : candidates.back();
                pick_front = !pick_front;
                ig.remove(victim);
                ref.remove(victim);
            }
            EXPECT_EQ(ig.maxDegree(), 0);
            EXPECT_TRUE(ref.maxDegreeNodes().empty());
        }
    }
}

TEST(Interference, BucketQueriesInterleavedWithPartialPeel)
{
    // The stack finder peels with peelPick() until maxDegree() <= 2
    // and then reads the residue; make sure a partial peel leaves
    // consistent state.
    Grid grid(10, 10);
    const auto tasks = randomLayer(grid, 40, 99);
    InterferenceGraph ig(tasks);
    NaivePeelReference ref(tasks);
    while (ig.maxDegree() > 2) {
        const size_t victim = ig.peelPick(tasks);
        ASSERT_EQ(victim, ref.peelPick());
        ig.remove(victim);
        ref.remove(victim);
    }
    EXPECT_LE(ig.maxDegree(), 2);
    EXPECT_EQ(ig.maxDegree(), ref.maxDegree());
    EXPECT_EQ(ig.peelPick(tasks), ref.peelPick());
    std::vector<size_t> active;
    ig.activeNodes(active);
    EXPECT_FALSE(active.empty());
    for (size_t n : active) {
        EXPECT_LE(ig.degree(n), 2);
        EXPECT_EQ(ig.degree(n), ref.degree(n));
    }
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

/** One seeded finder input: tasks on distinct cells, a blocked mask. */
struct FinderInstance
{
    std::vector<CxTask> tasks;
    BlockedBitset blocked;
};

/**
 * Up to @p count tasks on distinct cells of @p grid, each pairing a
 * random cell with one at most @p radius rows and columns away (local
 * traffic, many interference components) or, for radius 0, with any
 * cell (global traffic); each vertex is blocked with probability
 * @p density.
 */
FinderInstance
finderInstance(const Grid &grid, int count, int radius, double density,
               uint64_t seed)
{
    Rng rng(seed);
    FinderInstance inst{
        {}, BlockedBitset(static_cast<size_t>(grid.numVertices()))};
    std::vector<uint8_t> used(static_cast<size_t>(grid.numCells()), 0);
    auto randomCell = [&] {
        return Cell{rng.intIn(0, grid.rows() - 1),
                    rng.intIn(0, grid.cols() - 1)};
    };
    for (int attempt = 0;
         attempt < 50 * count &&
         static_cast<int>(inst.tasks.size()) < count;
         ++attempt) {
        const Cell a = randomCell();
        const Cell b =
            radius == 0
                ? randomCell()
                : Cell{std::clamp(a.r + rng.intIn(-radius, radius), 0,
                                  grid.rows() - 1),
                       std::clamp(a.c + rng.intIn(-radius, radius), 0,
                                  grid.cols() - 1)};
        const auto ia = static_cast<size_t>(grid.cid(a));
        const auto ib = static_cast<size_t>(grid.cid(b));
        if (a == b || used[ia] || used[ib])
            continue;
        used[ia] = used[ib] = 1;
        inst.tasks.push_back(CxTask::make(
            static_cast<GateIdx>(inst.tasks.size()), a, b));
    }
    for (size_t v = 0; v < inst.blocked.size(); ++v)
        if (rng.chance(density))
            inst.blocked.set(v);
    return inst;
}

TEST(StackFinder, MatchesReference)
{
    // The finder peels each instant once and splits only the claim by
    // component; the reference peels every component's own graph. Both
    // must route the same tasks on the same paths in the same order
    // and fail the same tasks, at every worker count, on small and
    // wide lattices, local and global traffic, and blocked densities
    // from none to 30%. One finder per lattice and worker count serves
    // every instance, as the scheduler reuses one across instants. A
    // metrics sink shows that the inputs reach multi-component
    // instants and merge repairs.
    telemetry::Telemetry sink(telemetry::TelemetryOptions{true, false});
    const telemetry::TelemetryScope scope(&sink);
    struct Lattice
    {
        int side;
        int radius; ///< local-traffic reach
        std::vector<int> counts;
    };
    const Lattice lattices[] = {{12, 2, {1, 9, 30, 60}},
                                {100, 3, {1, 40, 300, 1000}}};
    uint64_t seed = 0x5f1d'2026ULL;
    for (const Lattice &lat : lattices) {
        const Grid g(lat.side, lat.side);
        reference::StackPathFinder ref(g);
        std::vector<StackPathFinder> finders;
        for (const int jobs : {1, 3, 8})
            finders.emplace_back(g, jobs);
        for (const int count : lat.counts)
            for (const int radius : {lat.radius, 0})
                for (const double density : {0.0, 0.05, 0.15, 0.30}) {
                    const FinderInstance inst = finderInstance(
                        g, count, radius, density, ++seed);
                    SCOPED_TRACE(::testing::Message()
                                 << "side " << lat.side << " tasks "
                                 << inst.tasks.size() << " radius "
                                 << radius << " density " << density);
                    const RoutingOutcome want =
                        ref.findPaths(inst.tasks, inst.blocked);
                    for (StackPathFinder &finder : finders)
                        expectSameOutcome(
                            want,
                            finder.findPaths(inst.tasks, inst.blocked));
                }
    }
    EXPECT_GT(sink.metrics().histogram("route.components").max, 100.0);
    EXPECT_GT(sink.metrics().counter("route.merge_repairs"), 0);
}

TEST(StackFinder, WorkerMetricsMatchAcrossJobs)
{
    // Routing workers report into the caller's telemetry sink, so one
    // wide multi-component instant leaves the same metrics snapshot at
    // any worker count.
    const Grid g(100, 100);
    const FinderInstance inst = finderInstance(g, 400, 3, 0.05, 11);
    std::vector<std::string> snapshots;
    for (const int jobs : {1, 8}) {
        telemetry::Telemetry sink(telemetry::TelemetryOptions{true, false});
        {
            const telemetry::TelemetryScope scope(&sink);
            StackPathFinder finder(g, jobs);
            finder.findPaths(inst.tasks, inst.blocked);
        }
        ASSERT_GT(sink.metrics().histogram("route.components").max, 1.0);
        ASSERT_GT(sink.metrics().histogram("route.astar_nodes").count,
                  inst.tasks.size() / 2);
        snapshots.push_back(sink.metrics().toJson());
    }
    EXPECT_EQ(snapshots[0], snapshots[1]);
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
