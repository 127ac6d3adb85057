/**
 * @file
 * Edge-case scheduler scenarios: degenerate circuits (no braids, only
 * barriers, measure-only, single qubit), SWAP gates arriving in the
 * input circuit, deep serial chains, mixed-duration layers under
 * level synchronization, and tiny grids.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "compiler/driver.hpp"
#include "sched/validator.hpp"

namespace autobraid {
namespace {

CompileReport
compileTraced(const Circuit &c,
              SchedulerPolicy policy = SchedulerPolicy::AutobraidFull)
{
    CompileOptions opt;
    opt.policy = policy;
    opt.record_trace = true;
    return compileCircuit(c, opt);
}

TEST(EngineEdge, SingleQubitCircuit)
{
    Circuit c(1, "one");
    c.h(0);
    c.t(0);
    c.measure(0);
    const auto rep = compileTraced(c);
    CostModel cost;
    EXPECT_EQ(rep.result.makespan,
              cost.hCycles() + cost.tCycles() + cost.measureCycles());
    EXPECT_EQ(rep.grid_side, 1);
    EXPECT_EQ(rep.result.braids_routed, 0u);
}

TEST(EngineEdge, BarrierOnlyCircuit)
{
    Circuit c(3, "barriers");
    c.add(Gate::oneQubit(GateKind::Barrier, 0));
    c.add(Gate::twoQubit(GateKind::Barrier, 0, 1));
    c.add(Gate::twoQubit(GateKind::Barrier, 1, 2));
    const auto rep = compileTraced(c);
    EXPECT_EQ(rep.result.makespan, 0u);
    EXPECT_EQ(rep.result.gates_scheduled, 3u);
}

TEST(EngineEdge, MeasureOnlyCircuit)
{
    Circuit c(4, "measure");
    for (Qubit q = 0; q < 4; ++q)
        c.measure(q);
    const auto rep = compileTraced(c);
    CostModel cost;
    // All four measurements run in parallel on their own tiles.
    EXPECT_EQ(rep.result.makespan, cost.measureCycles());
}

TEST(EngineEdge, PauliOnlyCircuitIsFree)
{
    Circuit c(5, "paulis");
    for (int rep = 0; rep < 20; ++rep)
        for (Qubit q = 0; q < 5; ++q)
            c.x(q);
    const auto report = compileTraced(c);
    EXPECT_EQ(report.result.makespan, 0u);
    EXPECT_EQ(report.result.gates_scheduled, 100u);
}

TEST(EngineEdge, InputSwapGateBraidsForThreeWindows)
{
    Circuit c(4, "swapin");
    c.swap(0, 3);
    const auto rep = compileTraced(c);
    CostModel cost;
    EXPECT_EQ(rep.result.makespan, cost.swapCycles());
    ASSERT_EQ(rep.result.trace.size(), 1u);
    EXPECT_FALSE(rep.result.trace[0].path.empty());
    const Grid grid = Grid::forQubits(4);
    const auto v =
        validateSchedule(c, rep.result, cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
}

TEST(EngineEdge, DeepSerialChainEqualsCp)
{
    Circuit c(2, "chain");
    for (int i = 0; i < 50; ++i)
        c.cx(i % 2, 1 - i % 2);
    for (auto policy : {SchedulerPolicy::Baseline,
                        SchedulerPolicy::AutobraidSP}) {
        const auto rep = compileTraced(c, policy);
        EXPECT_EQ(rep.result.makespan, rep.critical_path)
            << policyName(policy);
    }
}

TEST(EngineEdge, LevelSyncPaysOnMixedDurations)
{
    // Layer 1: a CX (68 cycles) and an S (1 cycle) on other qubits;
    // layer 2: a gate depending only on the S. The event-driven
    // scheduler overlaps layer 2 with the CX; the leveled baseline
    // waits for the CX.
    Circuit c(4, "mixed");
    c.cx(0, 1);
    c.s(2);
    c.h(2); // depends only on s q2
    CostModel cost;
    const auto base = compileTraced(c, SchedulerPolicy::Baseline);
    const auto ours = compileTraced(c, SchedulerPolicy::AutobraidSP);
    EXPECT_EQ(ours.result.makespan, cost.cxCycles());
    EXPECT_EQ(base.result.makespan,
              cost.cxCycles() + cost.hCycles());
}

TEST(EngineEdge, TwoQubitsOnTwoByTwoGrid)
{
    Circuit c(2, "tiny");
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 0);
    c.measure(1);
    const auto rep = compileTraced(c);
    EXPECT_EQ(rep.grid_side, 2);
    EXPECT_EQ(rep.result.makespan, rep.critical_path);
    const Grid grid(2, 2);
    CostModel cost;
    const auto v = validateSchedule(c, rep.result, cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
}

TEST(EngineEdge, ManyIndependentPairsSaturateGrid)
{
    // 18 disjoint CX pairs on a 6x6 grid: the stack finder should
    // schedule a large fraction in the first window.
    Circuit c(36, "pairs");
    for (Qubit q = 0; q + 1 < 36; q += 2)
        c.cx(q, q + 1);
    const auto rep = compileTraced(c, SchedulerPolicy::AutobraidSP);
    CostModel cost;
    // All pairs adjacent under the snake layout -> one window.
    EXPECT_EQ(rep.result.makespan, cost.cxCycles());
    EXPECT_EQ(rep.result.max_concurrent_braids, 18u);
}

TEST(EngineEdge, RepeatedCompilationIsStable)
{
    Circuit c(9, "stable");
    for (int i = 0; i < 30; ++i)
        c.cx((i * 2) % 9, (i * 5 + 1) % 9 == (i * 2) % 9
                              ? (i * 5 + 2) % 9
                              : (i * 5 + 1) % 9);
    const auto a = compileTraced(c);
    const auto b = compileTraced(c);
    EXPECT_EQ(a.result.makespan, b.result.makespan);
    EXPECT_EQ(a.result.trace.size(), b.result.trace.size());
}

TEST(EngineEdge, SwapAndBarrierMix)
{
    Circuit c(6, "mix");
    c.h(0);
    c.swap(0, 5);
    c.add(Gate::twoQubit(GateKind::Barrier, 0, 5));
    c.cx(5, 0);
    c.measure(0);
    const auto rep = compileTraced(c);
    EXPECT_EQ(rep.result.gates_scheduled, c.size());
    CostModel cost;
    EXPECT_EQ(rep.result.makespan,
              cost.hCycles() + cost.swapCycles() + cost.cxCycles() +
                  cost.measureCycles());
}

} // namespace
} // namespace autobraid
