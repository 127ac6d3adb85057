/**
 * @file
 * Unit tests for the circuit IR: gates, circuits, the dependence DAG,
 * ASAP layering, and the coupling graph.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"
#include "circuit/dag.hpp"
#include "circuit/layers.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "lattice/cost_model.hpp"

namespace autobraid {
namespace {

TEST(Gate, Factories)
{
    const Gate h = Gate::oneQubit(GateKind::H, 3);
    EXPECT_EQ(h.q0, 3);
    EXPECT_EQ(h.q1, kNoQubit);
    EXPECT_EQ(h.arity(), 1);

    const Gate cx = Gate::twoQubit(GateKind::CX, 1, 2);
    EXPECT_EQ(cx.arity(), 2);
    EXPECT_TRUE(cx.touches(1));
    EXPECT_TRUE(cx.touches(2));
    EXPECT_FALSE(cx.touches(3));
}

TEST(Gate, FactoryValidation)
{
    EXPECT_THROW(Gate::oneQubit(GateKind::CX, 0), InternalError);
    EXPECT_THROW(Gate::twoQubit(GateKind::H, 0, 1), InternalError);
    EXPECT_THROW(Gate::oneQubit(GateKind::H, -1), UserError);
    EXPECT_THROW(Gate::twoQubit(GateKind::CX, 2, 2), UserError);
}

TEST(Gate, Names)
{
    EXPECT_STREQ(gateName(GateKind::CX), "cx");
    EXPECT_STREQ(gateName(GateKind::Sdg), "sdg");
    EXPECT_STREQ(gateName(GateKind::Measure), "measure");
}

TEST(Gate, Predicates)
{
    EXPECT_TRUE(isTwoQubit(GateKind::CX));
    EXPECT_TRUE(isTwoQubit(GateKind::Swap));
    EXPECT_FALSE(isTwoQubit(GateKind::H));
    EXPECT_TRUE(needsBraid(GateKind::CX));
    EXPECT_TRUE(needsBraid(GateKind::Swap));
    EXPECT_FALSE(needsBraid(GateKind::Barrier));
}

TEST(Gate, ToString)
{
    EXPECT_EQ(Gate::twoQubit(GateKind::CX, 3, 7).toString(),
              "cx q3, q7");
    EXPECT_EQ(Gate::oneQubit(GateKind::RZ, 1, 0.5).toString(),
              "rz(0.5) q1");
}

TEST(Circuit, RejectsInvalid)
{
    EXPECT_THROW(Circuit(0), UserError);
    Circuit c(2);
    EXPECT_THROW(c.h(2), UserError);
    EXPECT_THROW(c.cx(0, 5), UserError);
}

TEST(Circuit, BuilderAndCounts)
{
    Circuit c(3, "t");
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    c.cx(1, 2);
    c.swap(0, 2);
    EXPECT_EQ(c.size(), 5u);
    EXPECT_EQ(c.cxCount(), 5u);        // swap counts as 3
    EXPECT_EQ(c.twoQubitCount(), 3u);
    EXPECT_EQ(c.oneQubitCount(), 2u);
}

TEST(Circuit, UnitDepth)
{
    Circuit c(3);
    EXPECT_EQ(c.unitDepth(), 0u);
    c.h(0);
    c.h(1);
    EXPECT_EQ(c.unitDepth(), 1u);
    c.cx(0, 1); // depends on both
    c.cx(1, 2);
    EXPECT_EQ(c.unitDepth(), 3u);
}

TEST(Circuit, CphaseDecomposition)
{
    Circuit c(2);
    c.cphase(0, 1, 1.0);
    EXPECT_EQ(c.size(), 5u);
    EXPECT_EQ(c.cxCount(), 2u);
    EXPECT_EQ(c.gate(2).kind, GateKind::CX);
}

TEST(Circuit, CzDecomposition)
{
    Circuit c(2);
    c.cz(0, 1);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(0).kind, GateKind::H);
    EXPECT_EQ(c.gate(1).kind, GateKind::CX);
    EXPECT_EQ(c.gate(2).kind, GateKind::H);
}

TEST(Circuit, ToffoliDecomposition)
{
    Circuit c(3);
    c.ccx(0, 1, 2);
    EXPECT_EQ(c.cxCount(), 6u);
    size_t t_count = 0;
    for (const Gate &g : c.gates())
        if (g.kind == GateKind::T || g.kind == GateKind::Tdg)
            ++t_count;
    EXPECT_EQ(t_count, 7u);
    EXPECT_THROW(c.ccx(0, 0, 1), UserError);
}

TEST(Circuit, Append)
{
    Circuit a(3), b(2);
    b.h(0);
    b.cx(0, 1);
    a.append(b);
    EXPECT_EQ(a.size(), 2u);
    Circuit big(5);
    EXPECT_THROW(b.append(big), UserError);
}

TEST(Dag, LinearChain)
{
    Circuit c(1);
    c.h(0);
    c.t(0);
    c.h(0);
    Dag dag(c);
    EXPECT_EQ(dag.size(), 3u);
    EXPECT_TRUE(dag.preds(0).empty());
    EXPECT_EQ(dag.preds(1), std::vector<GateIdx>{0});
    EXPECT_EQ(dag.succs(1), std::vector<GateIdx>{2});
    EXPECT_EQ(dag.roots(), std::vector<GateIdx>{0});
    EXPECT_EQ(dag.unitDepth(), 3u);
}

TEST(Dag, SharedPredecessorRecordedOnce)
{
    Circuit c(2);
    c.cx(0, 1); // gate 0
    c.cx(1, 0); // gate 1 meets gate 0 on both operands
    Dag dag(c);
    EXPECT_EQ(dag.preds(1).size(), 1u);
    EXPECT_EQ(dag.succs(0).size(), 1u);
}

TEST(Dag, CriticalPathWeighted)
{
    Circuit c(3);
    c.h(0);     // 33
    c.cx(0, 1); // 68
    c.t(2);     // 2 (parallel branch)
    Dag dag(c);
    CostModel cost;
    cost.distance = 33;
    EXPECT_EQ(dag.criticalPath(cost.durationFn()), 33u + 68u);
}

TEST(Dag, AsapStartsRespectDurations)
{
    Circuit c(2);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    Dag dag(c);
    CostModel cost;
    const auto starts = dag.asapStarts(cost.durationFn());
    EXPECT_EQ(starts[0], 0u);
    EXPECT_EQ(starts[1], 0u);
    EXPECT_EQ(starts[2], cost.hCycles());
}

TEST(Dag, ZeroDurationGatesDontStretchCp)
{
    Circuit c(1);
    for (int i = 0; i < 10; ++i)
        c.x(0);
    Dag dag(c);
    CostModel cost;
    EXPECT_EQ(dag.criticalPath(cost.durationFn()), 0u);
}

TEST(ReadyFront, IssueRetireFlow)
{
    Circuit c(2);
    c.h(0);     // 0
    c.cx(0, 1); // 1
    c.h(1);     // 2
    Dag dag(c);
    ReadyFront front(dag);
    EXPECT_EQ(front.ready(), std::vector<GateIdx>{0});
    EXPECT_FALSE(front.done());

    front.issue(0);
    EXPECT_TRUE(front.ready().empty());
    front.retire(0);
    EXPECT_EQ(front.ready(), std::vector<GateIdx>{1});
    front.issue(1);
    front.retire(1);
    front.issue(2);
    front.retire(2);
    EXPECT_TRUE(front.done());
    EXPECT_EQ(front.retiredCount(), 3u);
}

TEST(ReadyFront, RejectsBadTransitions)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    Dag dag(c);
    ReadyFront front(dag);
    EXPECT_THROW(front.issue(1), InternalError);  // not ready
    EXPECT_THROW(front.retire(0), InternalError); // not issued
}

TEST(ReadyFront, IssueMatchesFindAndSwap)
{
    // Every dispatch iterates ready() in order, so issue() must keep
    // the order of the rule it replaced, written out here: find the
    // gate, move the last entry into its slot, pop the back; a gate
    // that becomes ready goes to the back. A seeded random DAG takes a
    // random issue/retire sequence to the end.
    Rng rng(2024);
    const int qubits = 24;
    Circuit c(qubits);
    for (int i = 0; i < 3000; ++i) {
        const int a = rng.intIn(0, qubits - 1);
        int b = a;
        while (b == a)
            b = rng.intIn(0, qubits - 1);
        if (rng.chance(0.4))
            c.h(a);
        else
            c.cx(a, b);
    }
    const Dag dag(c);
    ReadyFront front(dag);
    std::vector<size_t> pending(dag.size());
    std::vector<GateIdx> model;
    for (GateIdx g = 0; g < dag.size(); ++g) {
        pending[g] = dag.preds(g).size();
        if (pending[g] == 0)
            model.push_back(g);
    }
    ASSERT_EQ(front.ready(), model);
    std::vector<GateIdx> issued;
    size_t steps = 0, widest = 0;
    while (!front.done()) {
        if (!model.empty() && (issued.empty() || rng.chance(0.55))) {
            const GateIdx g = model[rng.index(model.size())];
            front.issue(g);
            const auto it = std::find(model.begin(), model.end(), g);
            *it = model.back();
            model.pop_back();
            issued.push_back(g);
        } else {
            const size_t k = rng.index(issued.size());
            const GateIdx g = issued[k];
            issued[k] = issued.back();
            issued.pop_back();
            front.retire(g);
            for (const GateIdx s : dag.succs(g))
                if (--pending[s] == 0)
                    model.push_back(s);
        }
        ASSERT_EQ(front.ready(), model) << "step " << steps;
        widest = std::max(widest, model.size());
        ++steps;
    }
    EXPECT_EQ(steps, 2 * dag.size());
    EXPECT_GT(widest, 5u);
}

TEST(Layers, AsapLayering)
{
    Circuit c(4);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.cx(2, 3);
    const auto layers = asapLayers(c);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0], (std::vector<GateIdx>{0, 1, 3}));
    EXPECT_EQ(layers[1], (std::vector<GateIdx>{2}));
}

TEST(Layers, ConcurrentCxSets)
{
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.cx(2, 3);
    c.cx(1, 2);
    const auto sets = concurrentCxSets(c);
    ASSERT_EQ(sets.size(), 3u);
    EXPECT_EQ(sets[0], std::vector<GateIdx>{2}); // cx(2,3) in layer 0
    EXPECT_EQ(sets[1], std::vector<GateIdx>{1});
    EXPECT_EQ(sets[2], std::vector<GateIdx>{3});
}

TEST(Layers, EveryGateInExactlyOneLayer)
{
    Circuit c(5);
    for (int i = 0; i < 40; ++i) {
        const Qubit a = i % 5;
        Qubit b = (i * 3 + 1) % 5;
        if (a == b)
            b = (a + 1) % 5;
        c.cx(a, b);
    }
    const auto layers = asapLayers(c);
    size_t total = 0;
    for (const auto &layer : layers)
        total += layer.size();
    EXPECT_EQ(total, c.size());
}

TEST(Coupling, FromCircuit)
{
    Circuit c(4);
    c.cx(0, 1);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(3); // single-qubit gates do not add edges
    CouplingGraph g(c);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.edgeWeight(0, 1), 2);
    EXPECT_EQ(g.edgeWeight(1, 0), 2);
    EXPECT_EQ(g.edgeWeight(0, 2), 0);
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(3), 0);
    EXPECT_EQ(g.maxDegree(), 2);
    EXPECT_EQ(g.totalWeight(), 3);
}

TEST(Coupling, Validation)
{
    CouplingGraph g(3);
    EXPECT_THROW(g.addEdge(0, 0), UserError);
    EXPECT_THROW(g.addEdge(0, 3), UserError);
    EXPECT_THROW(CouplingGraph(0), UserError);
}

TEST(Coupling, DegreeClassification)
{
    // Path 0-1-2-3: max degree 2.
    CouplingGraph path(4);
    path.addEdge(0, 1);
    path.addEdge(1, 2);
    path.addEdge(2, 3);
    EXPECT_TRUE(path.isMaxDegreeTwo());

    // Star: center has degree 3.
    CouplingGraph star(4);
    star.addEdge(0, 1);
    star.addEdge(0, 2);
    star.addEdge(0, 3);
    EXPECT_FALSE(star.isMaxDegreeTwo());
}

TEST(Coupling, DensityAllToAll)
{
    CouplingGraph g(5);
    for (Qubit a = 0; a < 5; ++a)
        for (Qubit b = a + 1; b < 5; ++b)
            g.addEdge(a, b);
    EXPECT_DOUBLE_EQ(g.density(), 1.0);
    EXPECT_TRUE(g.isAllToAllLike());

    CouplingGraph sparse(100);
    sparse.addEdge(0, 1);
    EXPECT_FALSE(sparse.isAllToAllLike());
}

} // namespace
} // namespace autobraid
