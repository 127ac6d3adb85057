/**
 * @file
 * Tests for bounding-box geometry and LLG analysis, including property
 * tests of the paper's theorems:
 *  - Theorem 1/5/6: LLGs of size <= 3 always admit simultaneous paths
 *    confined to their bounding box;
 *  - Theorem 2: strictly nested LLGs of any size do;
 *  - Theorem 3 (Fig. 9): a specific 4-CX layout admits no simultaneous
 *    schedule, but a one-swap relayout does.
 * Existence/non-existence is verified with an exhaustive backtracking
 * router independent of the production path finder.
 */

#include <gtest/gtest.h>

#include <functional>

#include "common/rng.hpp"
#include "llg/bbox.hpp"
#include "llg/llg.hpp"
#include "llg_reference.hpp"
#include "route/stack_finder.hpp"

namespace autobraid {
namespace {

/**
 * Exhaustive backtracking search for simultaneous vertex-disjoint paths
 * for all tasks, optionally confined to a bounding box. Paths are
 * bounded to (corner distance + slack) vertices. Independent of the
 * production A* machinery.
 */
class ExhaustiveRouter
{
  public:
    ExhaustiveRouter(const Grid &grid, const BBox *confine, int slack)
        : grid_(&grid), confine_(confine), slack_(slack)
    {}

    bool
    exists(const std::vector<CxTask> &tasks)
    {
        used_.assign(static_cast<size_t>(grid_->numVertices()), 0);
        nodes_ = 0;
        return place(tasks, 0);
    }

    /** True when the last exists() call hit the node budget. */
    bool exhausted() const { return nodes_ >= kNodeBudget; }

  private:
    static constexpr long kNodeBudget = 4'000'000;

    const Grid *grid_;
    const BBox *confine_;
    int slack_;
    std::vector<uint8_t> used_;
    long nodes_ = 0;

    bool
    usable(VertexId v) const
    {
        if (used_[static_cast<size_t>(v)])
            return false;
        return !confine_ || confine_->contains(grid_->vertex(v));
    }

    int
    minCornerDist(const Cell &a, const Cell &b) const
    {
        int best = 1 << 20;
        for (const Vertex &va : grid_->corners(a))
            for (const Vertex &vb : grid_->corners(b))
                best = std::min(best, va.dist(vb));
        return best;
    }

    bool
    place(const std::vector<CxTask> &tasks, size_t idx)
    {
        if (idx == tasks.size())
            return true;
        const CxTask &t = tasks[idx];
        const int budget = minCornerDist(t.a, t.b) + slack_;
        const auto target_ids = grid_->cornerIds(t.b);
        for (VertexId s : grid_->cornerIds(t.a)) {
            if (!usable(s))
                continue;
            if (extend(tasks, idx, s, budget, target_ids))
                return true;
        }
        return false;
    }

    bool
    extend(const std::vector<CxTask> &tasks, size_t idx, VertexId v,
           int budget, const std::array<VertexId, 4> &targets)
    {
        if (++nodes_ >= kNodeBudget)
            return false;
        used_[static_cast<size_t>(v)] = 1;
        const bool at_target =
            std::find(targets.begin(), targets.end(), v) !=
            targets.end();
        if (at_target && place(tasks, idx + 1)) {
            used_[static_cast<size_t>(v)] = 0;
            return true;
        }
        if (budget > 0) {
            std::array<VertexId, 4> nbrs;
            const int n = grid_->neighbors(v, nbrs);
            for (int i = 0; i < n; ++i) {
                if (!usable(nbrs[i]))
                    continue;
                if (extend(tasks, idx, nbrs[i], budget - 1, targets)) {
                    used_[static_cast<size_t>(v)] = 0;
                    return true;
                }
            }
        }
        used_[static_cast<size_t>(v)] = 0;
        return false;
    }
};

TEST(Bbox, InnerAndOuter)
{
    const BBox outer = outerBBox(Cell{0, 0}, Cell{2, 3});
    EXPECT_EQ(outer, (BBox{0, 0, 3, 4}));
    const BBox inner = innerBBox(Cell{0, 0}, Cell{2, 3});
    // Closest corners: (1,1) and (2,3).
    EXPECT_EQ(inner, (BBox{1, 1, 2, 3}));
    // Inner box of adjacent cells degenerates to a point/segment.
    const BBox adj = innerBBox(Cell{0, 0}, Cell{0, 1});
    EXPECT_EQ(adj.area(), 0);
}

TEST(Bbox, ClosestCornersDeterministic)
{
    const auto [a, b] = closestCorners(Cell{0, 0}, Cell{2, 2});
    EXPECT_EQ(a, (Vertex{1, 1}));
    EXPECT_EQ(b, (Vertex{2, 2}));
    const auto [c, d] = closestCorners(Cell{5, 5}, Cell{5, 5});
    EXPECT_EQ(c, d);
}

TEST(Bbox, StrictInterference)
{
    // Crossing diagonals strictly interfere.
    const CxTask x1 = CxTask::make(0, Cell{0, 0}, Cell{3, 3});
    const CxTask x2 = CxTask::make(1, Cell{0, 3}, Cell{3, 0});
    EXPECT_TRUE(strictlyInterferes(x1, x2));

    // Parallel vertical gates do not.
    const CxTask v1 = CxTask::make(0, Cell{0, 0}, Cell{3, 0});
    const CxTask v2 = CxTask::make(1, Cell{0, 2}, Cell{3, 2});
    EXPECT_FALSE(strictlyInterferes(v1, v2));

    // A line through another gate's qubit corner interferes.
    const CxTask through = CxTask::make(0, Cell{1, 0}, Cell{1, 4});
    const CxTask target = CxTask::make(1, Cell{1, 2}, Cell{3, 2});
    EXPECT_TRUE(strictlyInterferes(through, target));
}

TEST(Llg, SingletonsWhenDisjoint)
{
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{1, 1}),
        CxTask::make(1, Cell{5, 5}, Cell{6, 6}),
        CxTask::make(2, Cell{0, 5}, Cell{1, 6}),
    };
    const auto llgs = computeLlgs(tasks);
    EXPECT_EQ(llgs.size(), 3u);
    for (const Llg &g : llgs)
        EXPECT_EQ(g.size(), 1u);
}

TEST(Llg, TransitiveMerge)
{
    // A-B intersect, B-C intersect, A-C do not: one LLG of 3.
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{2, 2}),
        CxTask::make(1, Cell{2, 2}, Cell{4, 4}),
        CxTask::make(2, Cell{4, 4}, Cell{6, 6}),
    };
    const auto llgs = computeLlgs(tasks);
    ASSERT_EQ(llgs.size(), 1u);
    EXPECT_EQ(llgs[0].size(), 3u);
    EXPECT_EQ(llgs[0].bbox, (BBox{0, 0, 7, 7}));
}

TEST(Llg, JointBoxMergeCascade)
{
    // Two groups initially disjoint pairwise, but the joint box of the
    // first pair grows to swallow the third task.
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{0, 1}),
        CxTask::make(1, Cell{4, 0}, Cell{4, 1}),
        CxTask::make(2, Cell{0, 4}, Cell{4, 4}),
        CxTask::make(3, Cell{2, 2}, Cell{2, 3}), // inside joint of 0+1?
    };
    const auto llgs = computeLlgs(tasks);
    // 0 and 1 are disjoint boxes; 2 spans rows 0..5 at cols 4..5,
    // 3 sits in the middle. Verify the invariant instead of the exact
    // partition: joint boxes of distinct LLGs never intersect.
    for (size_t i = 0; i < llgs.size(); ++i)
        for (size_t j = i + 1; j < llgs.size(); ++j)
            EXPECT_FALSE(llgs[i].bbox.intersects(llgs[j].bbox));
    // Every task in exactly one LLG.
    size_t total = 0;
    for (const Llg &g : llgs)
        total += g.size();
    EXPECT_EQ(total, tasks.size());
}

TEST(Llg, NestedDetection)
{
    std::vector<CxTask> nested{
        CxTask::make(0, Cell{2, 2}, Cell{3, 3}),
        CxTask::make(1, Cell{1, 1}, Cell{4, 4}),
        CxTask::make(2, Cell{0, 0}, Cell{5, 5}),
    };
    const auto llgs = computeLlgs(nested);
    ASSERT_EQ(llgs.size(), 1u);
    EXPECT_TRUE(isStrictlyNested(llgs[0], nested));

    std::vector<CxTask> crossing{
        CxTask::make(0, Cell{0, 0}, Cell{3, 3}),
        CxTask::make(1, Cell{0, 3}, Cell{3, 0}),
    };
    const auto llgs2 = computeLlgs(crossing);
    ASSERT_EQ(llgs2.size(), 1u);
    EXPECT_FALSE(isStrictlyNested(llgs2[0], crossing));
}

TEST(Llg, StatsCountsOversize)
{
    // 4 mutually overlapping (non-nested) gates: one hard oversize LLG.
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{4, 4}),
        CxTask::make(1, Cell{0, 4}, Cell{4, 0}),
        CxTask::make(2, Cell{0, 2}, Cell{4, 2}),
        CxTask::make(3, Cell{2, 0}, Cell{2, 4}),
    };
    const auto stats = llgStats(tasks);
    EXPECT_EQ(stats.num_llgs, 1u);
    EXPECT_EQ(stats.oversize, 1u);
    EXPECT_EQ(stats.hard, 1u);
    EXPECT_EQ(stats.largest, 4u);
}

TEST(Llg, EmptyInput)
{
    EXPECT_TRUE(computeLlgs({}).empty());
    const auto stats = llgStats({});
    EXPECT_EQ(stats.num_llgs, 0u);
}

/** A task between random tiles of a @p rows x @p cols grid. */
CxTask
randomTask(GateIdx gate, int rows, int cols, Rng &rng)
{
    const auto pick = [&rng](int n) {
        return static_cast<int>(rng.index(static_cast<size_t>(n)));
    };
    return CxTask::make(gate, Cell{pick(rows), pick(cols)},
                        Cell{pick(rows), pick(cols)});
}

/**
 * A seeded task set: random tiles, plus by @p shape concentric
 * strictly nested chains, equal-area duplicates, a staircase of boxes
 * that touch at one corner, or empty boxes.
 */
std::vector<CxTask>
shapedTasks(int shape, Rng &rng)
{
    const int rows = 2 + static_cast<int>(rng.index(31));
    const int cols = 2 + static_cast<int>(rng.index(31));
    const size_t n = rng.index(257);
    std::vector<CxTask> tasks;
    const auto add = [&tasks](const Cell &a, const Cell &b) {
        tasks.push_back(CxTask::make(
            static_cast<GateIdx>(tasks.size()), a, b));
    };
    if (shape == 1) {
        // Chains of tiles (r-k, c-k)..(r+k, c+k): each box strictly
        // encloses the one before.
        for (int chain = 0; chain < 3; ++chain) {
            const int r = static_cast<int>(rng.index(
                static_cast<size_t>(rows)));
            const int c = static_cast<int>(rng.index(
                static_cast<size_t>(cols)));
            for (int k = 0; r - k >= 0 && c - k >= 0 && r + k < rows &&
                            c + k < cols;
                 ++k)
                add(Cell{r - k, c - k}, Cell{r + k, c + k});
        }
    } else if (shape == 2) {
        // Exact duplicates and transposed boxes of equal area.
        for (size_t i = 0; i < n / 4; ++i) {
            const CxTask t =
                randomTask(0, std::min(rows, cols), std::min(rows, cols),
                           rng);
            add(t.a, t.b);
            add(t.a, t.b);
            add(Cell{t.a.c, t.a.r}, Cell{t.b.c, t.b.r});
        }
    } else if (shape == 3) {
        // Horizontal pairs stepping one row down and two columns right:
        // neighbours share exactly one vertex.
        for (int r = 0, c = 0; r < rows && c + 1 < cols; ++r, c += 2)
            add(Cell{r, c}, Cell{r, c + 1});
    } else if (shape == 4) {
        // Empty boxes of both shapes, rows or columns inverted by one or
        // two inside the grid: a box spanning one would meet it if
        // emptiness went unchecked.
        for (size_t i = 0; i < n / 4; ++i) {
            CxTask t = randomTask(static_cast<GateIdx>(tasks.size()), rows,
                                  cols, rng);
            const int k = 1 + static_cast<int>(rng.index(2));
            if (i % 2 == 0)
                t.bbox.rmin = t.bbox.rmax + k;
            else
                t.bbox.cmin = t.bbox.cmax + k;
            tasks.push_back(t);
        }
    }
    while (tasks.size() < n)
        tasks.push_back(randomTask(static_cast<GateIdx>(tasks.size()),
                                   rows, cols, rng));
    rng.shuffle(tasks);
    return tasks;
}

TEST(Llg, KernelMatchesReference)
{
    // One merger for every set, so each merge runs in scratch a larger
    // earlier set left behind.
    LlgMerger merger;
    std::vector<BBox> boxes;
    size_t nested_oversize = 0; // Theorem 2 groups: the sort path runs
    size_t hard = 0;
    Rng rng(2021);
    size_t empties = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const auto tasks = shapedTasks(trial % 5, rng);
        for (const CxTask &t : tasks)
            empties += t.bbox.empty();
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << ", " << tasks.size()
                     << " tasks");
        const auto want = reference::computeLlgs(tasks);
        const auto got = computeLlgs(tasks);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].members, want[i].members) << "group " << i;
            ASSERT_EQ(got[i].bbox, want[i].bbox) << "group " << i;
            ASSERT_EQ(isStrictlyNested(got[i], tasks),
                      reference::isStrictlyNested(want[i], tasks))
                << "group " << i;
        }

        const LlgStats ref = reference::llgStats(tasks);
        nested_oversize += ref.oversize - ref.hard;
        hard += ref.hard;
        boxes.clear();
        for (const CxTask &t : tasks)
            boxes.push_back(t.bbox);
        for (const LlgStats &stats :
             {llgStats(tasks), merger.stats(boxes)}) {
            EXPECT_EQ(stats.num_llgs, ref.num_llgs);
            EXPECT_EQ(stats.oversize, ref.oversize);
            EXPECT_EQ(stats.hard, ref.hard);
            EXPECT_EQ(stats.largest, ref.largest);
        }
        const auto regrouped = merger.groups(boxes);
        ASSERT_EQ(regrouped.size(), want.size());
        for (size_t i = 0; i < regrouped.size(); ++i)
            ASSERT_EQ(regrouped[i].members, want[i].members);
    }
    EXPECT_GT(nested_oversize, 0u);
    EXPECT_GT(hard, 0u);
    EXPECT_GT(empties, 0u);
}

/** Property sweep: random small LLGs of a given size. */
class LlgTheoremTest : public testing::TestWithParam<int>
{
  protected:
    /** Sample @p k disjoint-qubit tasks on a small grid. */
    std::vector<CxTask>
    sampleTasks(const Grid &grid, int k, Rng &rng)
    {
        std::vector<CellId> cells(
            static_cast<size_t>(grid.numCells()));
        for (CellId c = 0; c < grid.numCells(); ++c)
            cells[static_cast<size_t>(c)] = c;
        rng.shuffle(cells);
        std::vector<CxTask> tasks;
        for (int i = 0; i < k; ++i)
            tasks.push_back(CxTask::make(
                static_cast<GateIdx>(i),
                grid.cell(cells[static_cast<size_t>(2 * i)]),
                grid.cell(cells[static_cast<size_t>(2 * i + 1)])));
        return tasks;
    }
};

TEST_P(LlgTheoremTest, SmallLlgsAlwaysScheduleInBBox)
{
    // Theorem 1 (via Theorems 4/5/6): any placement of <= 3 CX gates
    // admits simultaneous braiding paths confined to the joint
    // bounding box, provided the box is at least 2x3 cells (Theorem 6
    // precondition).
    const int k = GetParam();
    Rng rng(1000 + static_cast<uint64_t>(k));
    Grid grid(4, 4);
    int tested = 0;
    for (int trial = 0; trial < 60; ++trial) {
        auto tasks = sampleTasks(grid, k, rng);
        BBox joint;
        for (const CxTask &t : tasks)
            joint.cover(t.bbox);
        // Theorem 6 requires at least 2x3 or 3x2 cells.
        const int h = joint.rmax - joint.rmin;
        const int w = joint.cmax - joint.cmin;
        if (k == 3 && !((h >= 2 && w >= 3) || (h >= 3 && w >= 2)))
            continue;
        ++tested;
        ExhaustiveRouter router(grid, &joint, 6);
        EXPECT_TRUE(router.exists(tasks))
            << "k=" << k << " trial=" << trial;
    }
    EXPECT_GT(tested, 20);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LlgTheoremTest, testing::Values(1, 2, 3));

TEST(LlgTheorem, NestedLlgsScheduleInBBox)
{
    // Theorem 2: strictly nested LLGs of any size schedule within the
    // outermost bounding box. Build nested rings on a 6x6 grid.
    Grid grid(6, 6);
    std::vector<CxTask> tasks;
    for (int ring = 0; ring < 3; ++ring)
        tasks.push_back(CxTask::make(
            static_cast<GateIdx>(ring), Cell{ring, ring},
            Cell{5 - ring, 5 - ring}));
    BBox joint;
    for (const CxTask &t : tasks)
        joint.cover(t.bbox);
    ExhaustiveRouter router(grid, &joint, 8);
    EXPECT_TRUE(router.exists(tasks));

    // The production stack finder handles it too (it routes the
    // enclosing, largest-area gate last).
    StackPathFinder finder(grid);
    const auto outcome =
        finder.findPaths(tasks, noBlockedVertices(grid));
    EXPECT_EQ(outcome.routed.size(), tasks.size());
}

TEST(LlgTheorem, Fig9LayoutIsUnroutable)
{
    // Theorem 3 / Fig. 9(a): four pairwise-crossing boundary pairs
    // admit no simultaneous schedule (verified up to the search's path
    // budget; the theorem guarantees none at all). Compact instance on
    // a 2x4 grid: chords (0,c) -> (1, 3-c) pairwise-cross.
    Grid grid(2, 4);
    std::vector<CxTask> bad{
        CxTask::make(0, Cell{0, 0}, Cell{1, 3}),
        CxTask::make(1, Cell{0, 1}, Cell{1, 2}),
        CxTask::make(2, Cell{0, 2}, Cell{1, 1}),
        CxTask::make(3, Cell{0, 3}, Cell{1, 0}),
    };
    ExhaustiveRouter router(grid, nullptr, 5);
    EXPECT_FALSE(router.exists(bad));
    EXPECT_FALSE(router.exhausted()) << "search was truncated";

    // Fig. 9(b): swapping two pairs of qubits makes all four CX gates
    // simultaneously routable (vertical parallel pairs).
    std::vector<CxTask> good{
        CxTask::make(0, Cell{0, 3}, Cell{1, 3}),
        CxTask::make(1, Cell{0, 2}, Cell{1, 2}),
        CxTask::make(2, Cell{0, 1}, Cell{1, 1}),
        CxTask::make(3, Cell{0, 0}, Cell{1, 0}),
    };
    EXPECT_TRUE(router.exists(good));
}

TEST(LlgTheorem, StackFinderMatchesExistenceOnSmallCases)
{
    // Wherever the exhaustive router finds a schedule for <= 3 gates,
    // the production finder should schedule at least 2 of 3 (it is a
    // heuristic; unscheduled gates retry in later windows).
    Grid grid(4, 4);
    Rng rng(77);
    StackPathFinder finder(grid);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<CellId> cells(
            static_cast<size_t>(grid.numCells()));
        for (CellId c = 0; c < grid.numCells(); ++c)
            cells[static_cast<size_t>(c)] = c;
        rng.shuffle(cells);
        std::vector<CxTask> tasks;
        for (int i = 0; i < 3; ++i)
            tasks.push_back(CxTask::make(
                static_cast<GateIdx>(i),
                grid.cell(cells[static_cast<size_t>(2 * i)]),
                grid.cell(cells[static_cast<size_t>(2 * i + 1)])));
        const auto outcome =
            finder.findPaths(tasks, noBlockedVertices(grid));
        EXPECT_GE(outcome.routed.size(), 2u) << "trial " << trial;
    }
}

} // namespace
} // namespace autobraid
