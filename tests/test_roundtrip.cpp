/**
 * @file
 * QASM round-trip property tests: export -> parse -> identical gate
 * list, across every generator family and for adversarial contents
 * (angles, barriers, swaps). Also covers criticality ordering and the
 * remaining Dag analytics added for the baseline-policy ablation.
 */

#include <gtest/gtest.h>

#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "lattice/cost_model.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/exporter.hpp"
#include "route/greedy_finder.hpp"

namespace autobraid {
namespace {

class QasmRoundTrip : public testing::TestWithParam<const char *>
{};

TEST_P(QasmRoundTrip, ExportParseIdentity)
{
    const Circuit original = gen::make(GetParam());
    const std::string text = qasm::toQasm(original);
    const Circuit reparsed = qasm::parseToCircuit(text, "rt");
    ASSERT_EQ(reparsed.numQubits(), original.numQubits());
    ASSERT_EQ(reparsed.size(), original.size()) << GetParam();
    for (GateIdx g = 0; g < original.size(); ++g) {
        EXPECT_EQ(reparsed.gate(g).kind, original.gate(g).kind)
            << "gate " << g;
        EXPECT_EQ(reparsed.gate(g).q0, original.gate(g).q0);
        EXPECT_EQ(reparsed.gate(g).q1, original.gate(g).q1);
        EXPECT_DOUBLE_EQ(reparsed.gate(g).angle,
                         original.gate(g).angle);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, QasmRoundTrip,
    testing::Values("qft:8", "bv:8", "cc:8", "im:8:2", "qaoa:8:1",
                    "bwt:12", "shor:3:2", "revlib:rd32-v0",
                    "qpe:4:2", "grover:4", "adder:3", "ghz:8:1",
                    "randct:6:80:5", "mct:5:30:9"));

TEST(QasmRoundTrip, BarriersAndSwapsSurvive)
{
    Circuit c(4, "mixed");
    c.h(0);
    c.add(Gate::oneQubit(GateKind::Barrier, 1));
    c.add(Gate::twoQubit(GateKind::Barrier, 0, 2));
    c.swap(1, 3);
    c.rz(2, -0.1234567890123456789);
    c.measure(3);
    const Circuit back =
        qasm::parseToCircuit(qasm::toQasm(c), "mixed");
    ASSERT_EQ(back.size(), c.size());
    EXPECT_EQ(back.gates(), c.gates());
}

TEST(QasmRoundTrip, FileWriterWorks)
{
    const std::string path = testing::TempDir() + "/rt_export.qasm";
    const Circuit c = gen::make("ghz:6");
    qasm::writeQasmFile(c, path);
    const Circuit back = qasm::loadCircuit(path);
    EXPECT_EQ(back.gates(), c.gates());
    EXPECT_THROW(qasm::writeQasmFile(c, "/no/such/dir/x.qasm"),
                 UserError);
}

TEST(Criticality, MatchesCriticalPathAtRoots)
{
    const Circuit c = gen::make("bv:10");
    Dag dag(c);
    CostModel cost;
    const auto crit = dag.criticality(cost.durationFn());
    const Cycles cp = dag.criticalPath(cost.durationFn());
    Cycles max_crit = 0;
    for (Cycles v : crit)
        max_crit = std::max(max_crit, v);
    EXPECT_EQ(max_crit, cp);
}

TEST(Criticality, MonotoneAlongEdges)
{
    const Circuit c = gen::make("qft:8");
    Dag dag(c);
    CostModel cost;
    const auto crit = dag.criticality(cost.durationFn());
    for (GateIdx g = 0; g < c.size(); ++g)
        for (GateIdx s : dag.succs(g))
            EXPECT_GT(crit[g], crit[s] - 1) << g << "->" << s;
}

TEST(Criticality, GreedyOrderUsesPriority)
{
    Grid grid(6, 6);
    std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{0, 1}),
        CxTask::make(1, Cell{3, 3}, Cell{3, 4}),
    };
    tasks[0].priority = 1;
    tasks[1].priority = 100;
    GreedyPathFinder finder(grid, GreedyOrder::Criticality, true);
    const auto outcome =
        finder.findPaths(tasks, noBlockedVertices(grid));
    ASSERT_EQ(outcome.routed.size(), 2u);
    EXPECT_EQ(outcome.routed[0].first, 1u); // high priority first
}

TEST(Criticality, BaselineOrderOptionSchedulesLegally)
{
    const Circuit c = gen::make("qft:12");
    for (GreedyOrder order :
         {GreedyOrder::Distance, GreedyOrder::Program,
          GreedyOrder::Criticality}) {
        CompileOptions opt;
        opt.policy = SchedulerPolicy::Baseline;
        opt.baseline_order = order;
        const auto rep = compileCircuit(c, opt);
        EXPECT_EQ(rep.result.gates_scheduled, c.size());
        EXPECT_GE(rep.result.makespan, rep.critical_path);
    }
}

} // namespace
} // namespace autobraid
