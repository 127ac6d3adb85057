/**
 * @file
 * Parameterized property sweeps across the public API:
 *  - cost-model scaling in the code distance d;
 *  - scheduler legality over random Clifford+T circuits x policies x
 *    seeds (validator as the oracle);
 *  - statistical superiority of the stack finder over naive greedy
 *    orders on congested layers;
 *  - snake/Maslov invariants on rectangular grids;
 *  - annealer determinism.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "gen/stdlib.hpp"
#include "place/initial.hpp"
#include "route/greedy_finder.hpp"
#include "route/stack_finder.hpp"
#include "sched/maslov.hpp"
#include "sched/validator.hpp"

namespace autobraid {
namespace {

class DistanceSweep : public testing::TestWithParam<int>
{};

TEST_P(DistanceSweep, DurationsScaleWithDistance)
{
    CostModel cost;
    cost.distance = GetParam();
    const auto d = static_cast<Cycles>(GetParam());
    EXPECT_EQ(cost.cxCycles(), 2 * d + 2);
    EXPECT_EQ(cost.hCycles(), d);
    EXPECT_EQ(cost.measureCycles(), d);
    EXPECT_EQ(cost.swapCycles(), 3 * (2 * d + 2));
}

TEST_P(DistanceSweep, BvCriticalPathScalesLinearly)
{
    const Circuit c = gen::make("bv:12");
    CompileOptions opt;
    opt.cost.distance = GetParam();
    const auto rep = compileCircuit(c, opt);
    // BV: CP = 11 CX + 2 H = 11(2d+2) + 2d = 24d + 22.
    EXPECT_EQ(rep.critical_path,
              24u * static_cast<Cycles>(GetParam()) + 22u);
    EXPECT_EQ(rep.result.makespan, rep.critical_path);
}

TEST_P(DistanceSweep, LogicalErrorRateDecreases)
{
    SurfaceCodeParams params;
    const int d = GetParam();
    if (d >= 19) {
        EXPECT_LT(params.logicalErrorRate(d),
                  params.logicalErrorRate(d - 2));
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceSweep,
                         testing::Values(17, 25, 33, 55));

struct FuzzCase
{
    uint64_t seed;
    SchedulerPolicy policy;
};

class SchedulerFuzz : public testing::TestWithParam<FuzzCase>
{};

TEST_P(SchedulerFuzz, RandomCircuitsScheduleLegally)
{
    const auto &[seed, policy] = GetParam();
    const Circuit circuit =
        gen::makeRandomCliffordT(10, 400, seed, 0.45);
    CompileOptions opt;
    opt.policy = policy;
    opt.record_trace = true;
    opt.seed = seed * 7 + 1;
    const auto report = compileCircuit(circuit, opt);
    EXPECT_EQ(report.result.gates_scheduled, circuit.size());
    const Grid grid = Grid::forQubits(circuit.numQubits());
    const auto v = validateSchedule(circuit, report.result, opt.cost,
                                    &grid);
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.toString();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SchedulerFuzz,
    testing::Values(FuzzCase{1, SchedulerPolicy::Baseline},
                    FuzzCase{2, SchedulerPolicy::Baseline},
                    FuzzCase{1, SchedulerPolicy::AutobraidSP},
                    FuzzCase{2, SchedulerPolicy::AutobraidSP},
                    FuzzCase{1, SchedulerPolicy::AutobraidFull},
                    FuzzCase{2, SchedulerPolicy::AutobraidFull},
                    FuzzCase{3, SchedulerPolicy::AutobraidFull}),
    [](const testing::TestParamInfo<FuzzCase> &info) {
        return "seed" + std::to_string(info.param.seed) + "_" +
               std::to_string(static_cast<int>(info.param.policy));
    });

TEST(StackFinderStatistics, BeatsNaiveOrdersInAggregate)
{
    Grid grid(10, 10);
    StackPathFinder stack(grid);
    GreedyPathFinder program(grid, GreedyOrder::Program, true);
    GreedyPathFinder largest(grid, GreedyOrder::Largest, true);
    Rng rng(1234);
    double stack_total = 0, program_total = 0, largest_total = 0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
        std::vector<CellId> cells(
            static_cast<size_t>(grid.numCells()));
        for (CellId c = 0; c < grid.numCells(); ++c)
            cells[static_cast<size_t>(c)] = c;
        rng.shuffle(cells);
        std::vector<CxTask> tasks;
        for (int i = 0; i < 30; ++i)
            tasks.push_back(CxTask::make(
                static_cast<GateIdx>(i),
                grid.cell(cells[static_cast<size_t>(2 * i)]),
                grid.cell(cells[static_cast<size_t>(2 * i + 1)])));
        const auto free = noBlockedVertices(grid);
        stack_total += stack.findPaths(tasks, free).ratio();
        program_total += program.findPaths(tasks, free).ratio();
        largest_total += largest.findPaths(tasks, free).ratio();
    }
    EXPECT_GE(stack_total, program_total);
    EXPECT_GT(stack_total, largest_total);
}

class RectangularGrids
    : public testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(RectangularGrids, SnakeAndNetworkInvariants)
{
    const auto [rows, cols] = GetParam();
    Grid grid(rows, cols);
    SwapNetwork net(grid);
    const auto &line = net.lineCells();
    ASSERT_EQ(line.size(), static_cast<size_t>(grid.numCells()));
    for (size_t i = 0; i + 1 < line.size(); ++i) {
        EXPECT_TRUE(net.adjacentInLine(line[i], line[i + 1]));
        EXPECT_EQ(grid.cell(line[i]).dist(grid.cell(line[i + 1])), 1);
    }
    // Positions are a bijection.
    std::vector<uint8_t> seen(line.size(), 0);
    for (CellId c = 0; c < grid.numCells(); ++c) {
        const int pos = net.posOf(c);
        ASSERT_GE(pos, 0);
        ASSERT_LT(pos, static_cast<int>(line.size()));
        EXPECT_FALSE(seen[static_cast<size_t>(pos)]);
        seen[static_cast<size_t>(pos)] = 1;
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RectangularGrids,
                         testing::Values(std::pair{1, 7},
                                         std::pair{7, 1},
                                         std::pair{2, 5},
                                         std::pair{5, 3},
                                         std::pair{6, 6}));

TEST(AnnealerDeterminism, SameSeedSamePlacement)
{
    const Circuit c = gen::make("qaoa:16:2");
    Grid grid = Grid::forQubits(16);
    InitialPlacementConfig cfg;
    Rng r1(42), r2(42);
    const Placement a = initialPlacement(c, grid, r1, cfg);
    const Placement b = initialPlacement(c, grid, r2, cfg);
    for (Qubit q = 0; q < 16; ++q)
        EXPECT_EQ(a.cellIdOf(q), b.cellIdOf(q));
}

TEST(PipelineSweep, MakespanNeverBelowCpAcrossFamilies)
{
    for (const char *spec :
         {"qft:9", "im:9:2", "bv:9", "ghz:9", "adder:3",
          "grover:4", "qpe:5:2", "randct:8:150:9"}) {
        for (auto policy : {SchedulerPolicy::Baseline,
                            SchedulerPolicy::AutobraidFull}) {
            CompileOptions opt;
            opt.policy = policy;
            const auto rep =
                compileCircuit(gen::make(spec), opt);
            EXPECT_GE(rep.result.makespan, rep.critical_path)
                << spec;
            EXPECT_EQ(rep.result.gates_scheduled, rep.num_gates)
                << spec;
        }
    }
}

} // namespace
} // namespace autobraid
