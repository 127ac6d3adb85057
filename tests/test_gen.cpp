/**
 * @file
 * Unit tests for the benchmark generators: structure, gate counts, and
 * determinism of every circuit family plus the registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "circuit/coupling.hpp"
#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "gen/bv.hpp"
#include "gen/bwt.hpp"
#include "gen/cc.hpp"
#include "gen/ising.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"
#include "gen/registry.hpp"
#include "gen/revlib.hpp"
#include "gen/shor.hpp"
#include "lattice/cost_model.hpp"
#include "qasm/decompose.hpp"

namespace autobraid {
namespace gen {
namespace {

size_t
cxGates(const Circuit &c)
{
    return qasm::countKind(c, GateKind::CX);
}

TEST(Qft, StructureAndCounts)
{
    const Circuit c = makeQft(5);
    // n H + n(n-1)/2 cphase, cphase = 2 CX + 3 RZ.
    EXPECT_EQ(qasm::countKind(c, GateKind::H), 5u);
    EXPECT_EQ(cxGates(c), 2u * 10u);
    EXPECT_EQ(qasm::countKind(c, GateKind::RZ), 3u * 10u);
    EXPECT_EQ(c.numQubits(), 5);
    EXPECT_THROW(makeQft(0), UserError);
}

TEST(Qft, ReverseSwaps)
{
    const Circuit with = makeQft(6, true);
    const Circuit without = makeQft(6, false);
    EXPECT_EQ(qasm::countKind(with, GateKind::Swap), 3u);
    EXPECT_EQ(qasm::countKind(without, GateKind::Swap), 0u);
    EXPECT_EQ(with.size(), without.size() + 3u);
}

TEST(Qft, PaperGateCountAt200)
{
    // The paper counts a controlled phase as one gate: QFT-200 has
    // ~20.1K gates. Our pre-decomposition count is n h + n(n-1)/2 cp.
    const long n = 200;
    const long paper_style = n + n * (n - 1) / 2;
    EXPECT_NEAR(static_cast<double>(paper_style), 20100.0, 200.0);
}

TEST(Qft, InverseMirrorsForward)
{
    const Circuit f = makeQft(4);
    const Circuit i = makeInverseQft(4);
    EXPECT_EQ(f.size(), i.size());
    EXPECT_EQ(cxGates(f), cxGates(i));
}

TEST(Qft, AnglesStayExactPast64Qubits)
{
    // cphase(t) lowers to RZ(t/2) RZ(t/2) CX RZ(-t/2) CX, so the RZ two
    // gates before a CX carries half of a controlled phase, and every
    // controlled phase of the forward QFT is positive.
    const Circuit qft64 = makeQft(64);
    const std::vector<Gate> &gates = qft64.gates();
    size_t phases = 0;
    for (size_t k = 0; k + 2 < gates.size(); ++k)
        if (gates[k].kind == GateKind::RZ &&
            gates[k + 2].kind == GateKind::CX) {
            EXPECT_GT(gates[k].angle, 0.0) << "gate " << k;
            ++phases;
        }
    EXPECT_EQ(phases, 64u * 63u / 2u);

    const Circuit qft70 = makeQft(70);
    double smallest = std::numbers::pi;
    for (const Gate &g : qft70.gates())
        if (g.kind == GateKind::RZ)
            smallest = std::min(smallest, std::fabs(g.angle));
    EXPECT_EQ(smallest, std::ldexp(std::numbers::pi, -70));
}

TEST(Qft, AllToAllCoupling)
{
    const CouplingGraph g(makeQft(8));
    EXPECT_DOUBLE_EQ(g.density(), 1.0);
    EXPECT_TRUE(g.isAllToAllLike());
}

TEST(Bv, CountsMatchPaper)
{
    // BV-100 in the paper: 299 gates (2n H + (n-1) CX).
    const Circuit c = makeBv(100);
    EXPECT_EQ(c.size(), 299u);
    EXPECT_EQ(cxGates(c), 99u);
    EXPECT_EQ(qasm::countKind(c, GateKind::H), 200u);
}

TEST(Bv, NoCxParallelism)
{
    // Every CX targets the ancilla, so CX gates form one chain
    // (paper Fig. 6): unit depth ~ n+... and single CX per layer.
    const Circuit c = makeBv(20);
    Dag dag(c);
    CostModel cost;
    const Cycles cp = dag.criticalPath(cost.durationFn());
    EXPECT_EQ(cp, 19 * cost.cxCycles() + 2 * cost.hCycles());
}

TEST(Bv, ExplicitSecret)
{
    const std::vector<bool> secret{true, false, true};
    const Circuit c = makeBv(secret);
    EXPECT_EQ(c.numQubits(), 4);
    EXPECT_EQ(cxGates(c), 2u);
    EXPECT_THROW(makeBv(std::vector<bool>{}), UserError);
}

TEST(Cc, CountsMatchPaper)
{
    // CC-100 in the paper: 198 gates.
    const Circuit c = makeCc(100);
    EXPECT_EQ(c.size(), 198u);
    EXPECT_EQ(cxGates(c), 99u);
}

TEST(Ising, CountsAndParallelism)
{
    const Circuit c = makeIsing(10, 1);
    // Per step: n RZ + 3(n-1) gates.
    EXPECT_EQ(c.size(), 10u + 27u);
    // ~n/2 simultaneous CX in the even block (paper Fig. 7).
    const Circuit big = makeIsing(100, 1);
    Dag dag(big);
    CostModel cost;
    // Constant depth: 4 CX + some RZ, independent of n.
    const Cycles cp100 = dag.criticalPath(cost.durationFn());
    const Circuit big500 = makeIsing(500, 1); // Dag keeps a reference
    Dag dag2(big500);
    EXPECT_EQ(cp100, dag2.criticalPath(cost.durationFn()));
}

TEST(Ising, MaxDegreeTwoCoupling)
{
    const CouplingGraph g(makeIsing(30, 2));
    EXPECT_TRUE(g.isMaxDegreeTwo());
    EXPECT_THROW(makeIsing(1), UserError);
    EXPECT_THROW(makeIsing(10, 0), UserError);
}

TEST(Qaoa, CountsMatchPaper)
{
    // Paper QAOA-100: 4.5K gates = 8 rounds * (3*150 + 100) + 100 h.
    const Circuit c = makeQaoa(100, 8);
    EXPECT_EQ(c.size(), 4500u);
    EXPECT_EQ(cxGates(c), 8u * 2u * 150u);
}

TEST(Qaoa, ThreeRegular)
{
    const CouplingGraph g(makeQaoa(64, 1));
    for (Qubit q = 0; q < 64; ++q)
        EXPECT_EQ(g.degree(q), 3) << "qubit " << q;
}

TEST(Qaoa, MatchingRespectsLocalityWindow)
{
    const int window = 8;
    const CouplingGraph g(makeQaoa(64, 1, 7, window));
    for (Qubit q = 0; q < 64; ++q) {
        for (const auto &[n, w] : g.neighbors(q)) {
            const int d = std::abs(q - n);
            const bool ring_wrap = d == 63;
            EXPECT_TRUE(d < window || ring_wrap)
                << "edge " << q << "-" << n;
        }
    }
}

TEST(Qaoa, DeterministicInSeed)
{
    const Circuit a = makeQaoa(32, 2, 5);
    const Circuit b = makeQaoa(32, 2, 5);
    const Circuit c = makeQaoa(32, 2, 6);
    EXPECT_EQ(a.gates(), b.gates());
    EXPECT_NE(a.gates(), c.gates());
}

TEST(Qaoa, Validation)
{
    EXPECT_THROW(makeQaoa(3), UserError);  // odd
    EXPECT_THROW(makeQaoa(10, 0), UserError);
    EXPECT_THROW(makeQaoa(16, 1, 1, 2), UserError); // window < 4
}

TEST(Bwt, StructureAndValidation)
{
    const Circuit c = makeBwt(179, 1);
    EXPECT_EQ(c.numQubits(), 179);
    // Paper BWT-179 has 260 gates; ours lands in the same decade.
    EXPECT_GT(c.size(), 150u);
    EXPECT_LT(c.size(), 400u);
    EXPECT_THROW(makeBwt(4), UserError);
    EXPECT_THROW(makeBwt(10, 0), UserError);
}

TEST(Bwt, TreeEdgesStayInBounds)
{
    for (int n : {6, 7, 20, 33, 179, 240}) {
        const Circuit c = makeBwt(n, 2);
        for (const Gate &g : c.gates()) {
            EXPECT_GE(g.q0, 0);
            EXPECT_LT(g.q0, n);
            if (g.q1 != kNoQubit) {
                EXPECT_LT(g.q1, n);
                EXPECT_NE(g.q0, g.q1);
            }
        }
    }
}

TEST(Shor, PaperScaleInstance)
{
    // bits=234 -> 471 qubits (the paper's Shor instance).
    const Circuit c = makeShor(234);
    EXPECT_EQ(c.numQubits(), 471);
    // Pre-decomposition (cphase = 1 gate) count should be near the
    // paper's 36.5K: rounds*bits + bits*(bits-1)/2 + h's.
    const long logical = 36 * 234 + 234L * 233 / 2 + 2 * 234 + 234;
    EXPECT_NEAR(static_cast<double>(logical), 36500.0, 2000.0);
    EXPECT_THROW(makeShor(1), UserError);
    EXPECT_THROW(makeShor(8, 0), UserError);
}

TEST(Shor, SmallInstanceRuns)
{
    const Circuit c = makeShor(4, 2);
    EXPECT_EQ(c.numQubits(), 11);
    EXPECT_GT(cxGates(c), 10u);
}

TEST(Revlib, CatalogComplete)
{
    const auto &cat = revlibCatalog();
    EXPECT_EQ(cat.size(), 11u);
    const auto &urf2 = revlibEntry("urf2_277");
    EXPECT_EQ(urf2.qubits, 8);
    EXPECT_EQ(urf2.mct_gates, 20100);
    EXPECT_THROW(revlibEntry("nope"), UserError);
}

TEST(Revlib, GeneratedCircuitsMatchCatalog)
{
    const Circuit c = makeRevlib("4gt11_8");
    EXPECT_EQ(c.numQubits(), 5);
    // 20 MCT gates expand to >= 20 basis gates.
    EXPECT_GE(c.size(), 20u);
    // Deterministic.
    EXPECT_EQ(makeRevlib("4gt11_8").gates(), c.gates());
}

TEST(Revlib, MctNetworkComposition)
{
    const Circuit c = makeMctNetwork(6, 200, 3);
    EXPECT_EQ(c.numQubits(), 6);
    size_t x = qasm::countKind(c, GateKind::X);
    size_t cx = cxGates(c);
    EXPECT_GT(x, 0u);
    EXPECT_GT(cx, 100u); // Toffolis contribute 6 CX each
    EXPECT_THROW(makeMctNetwork(2, 10, 1), UserError);
    EXPECT_THROW(makeMctNetwork(5, 0, 1), UserError);
}

TEST(Registry, AllFamilies)
{
    EXPECT_EQ(make("qft:8").numQubits(), 8);
    EXPECT_EQ(make("bv:10").numQubits(), 10);
    EXPECT_EQ(make("cc:10").numQubits(), 10);
    EXPECT_EQ(make("im:10").numQubits(), 10);
    EXPECT_EQ(make("im:10:5").numQubits(), 10);
    EXPECT_EQ(make("qaoa:16").numQubits(), 16);
    EXPECT_EQ(make("bwt:20").numQubits(), 20);
    EXPECT_EQ(make("shor:4").numQubits(), 11);
    EXPECT_EQ(make("revlib:rd32-v0").numQubits(), 4);
    EXPECT_EQ(make("mct:5:30:2").numQubits(), 5);
}

TEST(Registry, Errors)
{
    EXPECT_THROW(make(""), UserError);
    EXPECT_THROW(make("unknown:5"), UserError);
    EXPECT_THROW(make("qft:x"), UserError);
    // Integer fields are parsed whole: trailing junk, embedded
    // whitespace and overflow are rejected, not truncated.
    EXPECT_THROW(make("qft:12abc"), UserError);
    EXPECT_THROW(make("im:8:2x"), UserError);
    EXPECT_THROW(make("qft: 12"), UserError);
    EXPECT_THROW(make("qft:"), UserError);
    EXPECT_THROW(make("qft:99999999999"), UserError);
    EXPECT_THROW(make("revlib"), UserError);
    EXPECT_THROW(make("qasm"), UserError);
}

TEST(Registry, FamilyIsWhatMakeDispatchesOn)
{
    // make() drops empty ':' fields, so leading colons do not hide the
    // family from a caller that screens specs by family().
    for (const char *spec : {"qft:8", ":qft:8", "::qft:8", "qft::8"}) {
        EXPECT_EQ(family(spec), "qft") << spec;
        EXPECT_EQ(make(spec).numQubits(), 8) << spec;
    }
    EXPECT_EQ(family(":qasm:x.qasm"), "qasm");
    EXPECT_EQ(family(""), "");
    EXPECT_EQ(family(":::"), "");
}

TEST(Registry, ExampleSpecsAllBuild)
{
    for (const std::string &spec : exampleSpecs()) {
        if (spec == "shor:234")
            continue; // large; covered separately
        EXPECT_NO_THROW(make(spec)) << spec;
    }
}

} // namespace
} // namespace gen
} // namespace autobraid
