/**
 * @file
 * Tests for the extended generator set: QPE, Grover, the Cuccaro
 * adder, GHZ, and random Clifford+T circuits, plus their registry
 * specs and end-to-end schedulability.
 */

#include <gtest/gtest.h>

#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "compiler/driver.hpp"
#include "gen/adder.hpp"
#include "gen/grover.hpp"
#include "gen/qpe.hpp"
#include "gen/registry.hpp"
#include "gen/stdlib.hpp"
#include "qasm/decompose.hpp"

namespace autobraid {
namespace gen {
namespace {

TEST(Qpe, Structure)
{
    const Circuit c = makeQpe(6, 3);
    EXPECT_EQ(c.numQubits(), 9);
    // 6 counting H + 3 target X at the start.
    EXPECT_EQ(c.gate(0).kind, GateKind::H);
    // Controlled-U cascade: 6 * 3 cphases, iQFT: 15 cphases.
    EXPECT_EQ(qasm::countKind(c, GateKind::CX),
              2u * (6 * 3 + 15));
    // Counting register measured.
    EXPECT_EQ(qasm::countKind(c, GateKind::Measure), 6u);
    EXPECT_THROW(makeQpe(0, 3), UserError);
    EXPECT_THROW(makeQpe(3, 0), UserError);
}

TEST(Grover, Structure)
{
    const Circuit c = makeGrover(4, 2, 0b1010);
    EXPECT_EQ(c.numQubits(), 6); // 4 search + 2 ancillas
    EXPECT_EQ(qasm::countKind(c, GateKind::Measure), 4u);
    // Two MCZ per iteration, each with 2*(n-2) CCX = 4 CCX -> CX
    // traffic present.
    EXPECT_GT(qasm::countKind(c, GateKind::CX), 20u);
    EXPECT_THROW(makeGrover(2), UserError);
    EXPECT_THROW(makeGrover(4, 0), UserError);
}

TEST(Grover, MarkedStateControlsXPattern)
{
    // All-ones marked state needs no X conjugation in the oracle.
    const Circuit all_ones = makeGrover(4, 1, 0b1111);
    const Circuit zeros = makeGrover(4, 1, 0b0000);
    EXPECT_LT(qasm::countKind(all_ones, GateKind::X),
              qasm::countKind(zeros, GateKind::X));
}

TEST(Adder, Structure)
{
    const Circuit c = makeAdder(4);
    EXPECT_EQ(c.numQubits(), 10);
    // 4 MAJ + 4 UMA = 8 CCX (each 6 CX) + 2*8 CX + carry CX.
    EXPECT_EQ(qasm::countKind(c, GateKind::CX),
              8u * 6u + 8u * 2u + 1u);
    EXPECT_EQ(qasm::countKind(c, GateKind::Measure), 5u);
    EXPECT_THROW(makeAdder(0), UserError);
}

TEST(Adder, RippleIsSerial)
{
    // The carry ripples: CP grows linearly with width.
    CostModel cost;
    const Circuit c4 = makeAdder(4);
    const Circuit c8 = makeAdder(8);
    Dag d4(c4), d8(c8);
    const Cycles cp4 = d4.criticalPath(cost.durationFn());
    const Cycles cp8 = d8.criticalPath(cost.durationFn());
    EXPECT_GT(cp8, cp4 + (cp4 / 2));
}

TEST(Ghz, ChainVsTreeDepth)
{
    const Circuit chain = makeGhz(16, false);
    const Circuit tree = makeGhz(16, true);
    EXPECT_EQ(chain.size(), 16u); // h + 15 cx
    EXPECT_EQ(tree.size(), 16u);
    EXPECT_GT(chain.unitDepth(), tree.unitDepth());
    // Tree depth ~ log2(n) + 1.
    EXPECT_LE(tree.unitDepth(), 6u);
    EXPECT_THROW(makeGhz(1), UserError);
}

TEST(Ghz, TreeHitsCpFasterThanChain)
{
    CompileOptions opt;
    const auto chain =
        compileCircuit(makeGhz(25, false), opt);
    const auto tree = compileCircuit(makeGhz(25, true), opt);
    EXPECT_LT(tree.result.makespan, chain.result.makespan);
}

TEST(RandomCliffordT, CompositionAndDeterminism)
{
    const Circuit a = makeRandomCliffordT(8, 500, 11, 0.5);
    const Circuit b = makeRandomCliffordT(8, 500, 11, 0.5);
    EXPECT_EQ(a.gates(), b.gates());
    EXPECT_EQ(a.size(), 500u);
    const double cx_frac =
        static_cast<double>(a.twoQubitCount()) / 500.0;
    EXPECT_NEAR(cx_frac, 0.5, 0.1);
    EXPECT_THROW(makeRandomCliffordT(1, 10, 1), UserError);
    EXPECT_THROW(makeRandomCliffordT(4, 0, 1), UserError);
    EXPECT_THROW(makeRandomCliffordT(4, 10, 1, 2.0), UserError);
}

TEST(RegistryExtra, NewFamilies)
{
    EXPECT_EQ(make("qpe:6:3").numQubits(), 9);
    EXPECT_EQ(make("grover:5").numQubits(), 8);
    EXPECT_EQ(make("grover:5:2:3").numQubits(), 8);
    EXPECT_EQ(make("adder:4").numQubits(), 10);
    EXPECT_EQ(make("ghz:12").numQubits(), 12);
    EXPECT_EQ(make("ghz:12:1").unitDepth(),
              makeGhz(12, true).unitDepth());
    EXPECT_EQ(make("randct:6:100:2").size(), 100u);
}

TEST(RegistryExtra, AllExampleSpecsBuild)
{
    for (const std::string &spec : exampleSpecs()) {
        if (spec == "shor:234" || spec == "qft:200")
            continue; // big; covered elsewhere
        EXPECT_NO_THROW(make(spec)) << spec;
    }
}

class ExtraFamiliesEndToEnd
    : public testing::TestWithParam<const char *>
{};

TEST_P(ExtraFamiliesEndToEnd, CompilesToCriticalPathNeighborhood)
{
    const Circuit circuit = gen::make(GetParam());
    CompileOptions opt;
    opt.policy = SchedulerPolicy::AutobraidFull;
    const auto report = compileCircuit(circuit, opt);
    EXPECT_EQ(report.result.gates_scheduled, circuit.size());
    EXPECT_GE(report.result.makespan, report.critical_path);
    // Small instances should land within 2x of CP.
    EXPECT_LE(static_cast<double>(report.result.makespan),
              2.0 * static_cast<double>(report.critical_path))
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Specs, ExtraFamiliesEndToEnd,
                         testing::Values("qpe:8:4", "grover:5",
                                         "adder:6", "ghz:16:1",
                                         "randct:9:300:4"));

} // namespace
} // namespace gen
} // namespace autobraid
