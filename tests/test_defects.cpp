/**
 * @file
 * Tests for lattice fault injection: DefectMap invariants (every tile
 * keeps a corner, routing graph stays connected) and end-to-end
 * scheduling on defective lattices across policies.
 */

#include <gtest/gtest.h>

#include <queue>

#include "common/error.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "lattice/defects.hpp"
#include "sched/validator.hpp"

namespace autobraid {
namespace {

/** Count live vertices reachable from the first live vertex. */
size_t
liveReachable(const Grid &grid, const DefectMap &map)
{
    VertexId start = -1;
    for (VertexId v = 0; v < grid.numVertices(); ++v) {
        if (!map.dead(v)) {
            start = v;
            break;
        }
    }
    if (start < 0)
        return 0;
    std::vector<uint8_t> seen(
        static_cast<size_t>(grid.numVertices()), 0);
    std::queue<VertexId> frontier;
    frontier.push(start);
    seen[static_cast<size_t>(start)] = 1;
    size_t reached = 1;
    std::array<VertexId, 4> nbrs;
    while (!frontier.empty()) {
        const VertexId u = frontier.front();
        frontier.pop();
        const int n = grid.neighbors(u, nbrs);
        for (int i = 0; i < n; ++i) {
            const VertexId w = nbrs[i];
            if (map.dead(w) || seen[static_cast<size_t>(w)])
                continue;
            seen[static_cast<size_t>(w)] = 1;
            ++reached;
            frontier.push(w);
        }
    }
    return reached;
}

TEST(DefectMap, EmptyByDefault)
{
    Grid grid(4, 4);
    DefectMap map(grid);
    EXPECT_EQ(map.deadCount(), 0u);
    EXPECT_TRUE(map.deadVertices().empty());
    for (VertexId v = 0; v < grid.numVertices(); ++v)
        EXPECT_FALSE(map.dead(v));
}

TEST(DefectMap, MarkDeadAndIdempotent)
{
    Grid grid(4, 4);
    DefectMap map(grid);
    map.markDead(grid, 6);
    EXPECT_TRUE(map.dead(6));
    EXPECT_EQ(map.deadCount(), 1u);
    map.markDead(grid, 6); // no-op
    EXPECT_EQ(map.deadCount(), 1u);
    EXPECT_EQ(map.deadVertices(), std::vector<VertexId>{6});
}

TEST(DefectMap, RefusesToStrandATile)
{
    Grid grid(2, 2);
    DefectMap map(grid);
    // Kill three corners of tile (0,0): (0,0), (0,1), (1,0).
    map.markDead(grid, grid.vid(Vertex{0, 0}));
    map.markDead(grid, grid.vid(Vertex{0, 1}));
    map.markDead(grid, grid.vid(Vertex{1, 0}));
    // The fourth corner (1,1) must be refused.
    EXPECT_THROW(map.markDead(grid, grid.vid(Vertex{1, 1})),
                 UserError);
}

TEST(DefectMap, RefusesToDisconnect)
{
    Grid grid(1, 4); // vertex grid 2x5
    DefectMap map(grid);
    // A full column cut at c=2 would disconnect left from right.
    map.markDead(grid, grid.vid(Vertex{0, 2}));
    EXPECT_THROW(map.markDead(grid, grid.vid(Vertex{1, 2})),
                 UserError);
}

TEST(DefectMap, RandomPreservesInvariants)
{
    Grid grid(6, 6);
    Rng rng(9);
    const DefectMap map = DefectMap::random(grid, 10, rng);
    EXPECT_GT(map.deadCount(), 0u);
    EXPECT_LE(map.deadCount(), 10u);
    // Connectivity.
    EXPECT_EQ(liveReachable(grid, map),
              static_cast<size_t>(grid.numVertices()) -
                  map.deadCount());
    // Every tile keeps a corner.
    for (CellId c = 0; c < grid.numCells(); ++c) {
        int live = 0;
        for (VertexId v : grid.cornerIds(grid.cell(c)))
            if (!map.dead(v))
                ++live;
        EXPECT_GE(live, 1) << "tile " << c;
    }
}

TEST(DefectMap, RandomOnTinyGridMayPlaceFewer)
{
    Grid grid(1, 1);
    Rng rng(3);
    const DefectMap map = DefectMap::random(grid, 10, rng);
    EXPECT_LT(map.deadCount(), 4u); // can never kill all corners
}

class DefectiveScheduling
    : public testing::TestWithParam<SchedulerPolicy>
{};

TEST_P(DefectiveScheduling, SchedulesLegallyAroundDefects)
{
    const Circuit circuit = gen::make("qft:12");
    const Grid grid = Grid::forQubits(circuit.numQubits());
    Rng rng(17);
    const DefectMap defects = DefectMap::random(grid, 5, rng);

    CompileOptions opt;
    opt.policy = GetParam();
    opt.record_trace = true;
    opt.dead_vertices = defects.deadVertices();
    const CompileReport report = compileCircuit(circuit, opt);

    EXPECT_EQ(report.result.gates_scheduled, circuit.size());
    const auto v = validateSchedule(circuit, report.result, opt.cost,
                                    &grid);
    EXPECT_TRUE(v.ok) << v.toString();
    // No braid may touch a dead vertex.
    for (const TraceEntry &e : report.result.trace)
        for (VertexId vert : e.path.vertices)
            EXPECT_FALSE(defects.dead(vert));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DefectiveScheduling,
    testing::Values(SchedulerPolicy::Baseline,
                    SchedulerPolicy::AutobraidSP,
                    SchedulerPolicy::AutobraidFull),
    [](const testing::TestParamInfo<SchedulerPolicy> &info) {
        switch (info.param) {
          case SchedulerPolicy::Baseline: return "baseline";
          case SchedulerPolicy::AutobraidSP: return "sp";
          default: return "full";
        }
    });

TEST(DefectiveScheduling, DefectsCostLatencyButNotCorrectness)
{
    const Circuit circuit = gen::make("im:16:3");
    const Grid grid = Grid::forQubits(circuit.numQubits());
    Rng rng(21);

    CompileOptions clean;
    clean.policy = SchedulerPolicy::AutobraidFull;
    const auto r_clean = compileCircuit(circuit, clean);

    CompileOptions broken = clean;
    broken.dead_vertices =
        DefectMap::random(grid, 6, rng).deadVertices();
    const auto r_broken = compileCircuit(circuit, broken);

    EXPECT_EQ(r_broken.result.gates_scheduled, circuit.size());
    EXPECT_GE(r_broken.result.makespan, r_clean.result.makespan);
}

} // namespace
} // namespace autobraid
