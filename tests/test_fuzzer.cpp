/**
 * @file
 * Tests for the differential fuzz harness: generator determinism and
 * shape coverage, the policy-mask parser, the differential oracle on a
 * fixed seed block, the portfolio oracle on seeds where an alternative
 * schedule wins, batch-determinism and degenerate strip-lattice
 * checks, and the shrinker's minimality and budget guarantees.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/error.hpp"
#include "testing/differential.hpp"
#include "testing/harness.hpp"
#include "testing/shrinker.hpp"

namespace autobraid {
namespace {

TEST(FuzzGenerator, DeterministicPerSeed)
{
    for (uint64_t seed : {1u, 5u, 99u}) {
        const fuzz::FuzzCase a = fuzz::makeFuzzCase(seed);
        const fuzz::FuzzCase b = fuzz::makeFuzzCase(seed);
        EXPECT_EQ(a.circuit.toString(), b.circuit.toString());
        EXPECT_EQ(a.summary(), b.summary());
        EXPECT_EQ(a.options.p_threshold, b.options.p_threshold);
        EXPECT_EQ(a.options.dead_vertices, b.options.dead_vertices);
    }
}

TEST(FuzzGenerator, ContiguousSeedsCoverEveryShape)
{
    std::set<fuzz::FuzzShape> seen;
    for (uint64_t seed = 0; seed < 10; ++seed)
        seen.insert(fuzz::makeFuzzCase(seed).shape);
    EXPECT_EQ(seen.size(),
              static_cast<size_t>(fuzz::kNumFuzzShapes));
}

TEST(FuzzGenerator, CircuitsAreNeverEmpty)
{
    // An empty circuit has no trace, which the validator rejects —
    // the generator must never produce one.
    for (uint64_t seed = 0; seed < 40; ++seed) {
        const fuzz::FuzzCase c = fuzz::makeFuzzCase(seed);
        EXPECT_GE(c.circuit.size(), 1u) << "seed " << seed;
        EXPECT_GE(c.circuit.numQubits(), 2) << "seed " << seed;
    }
}

TEST(FuzzGenerator, ShapesProduceTheirStructure)
{
    Rng rng(7);
    fuzz::FuzzCircuitOptions opt;
    opt.num_qubits = 8;
    opt.num_gates = 40;
    const Circuit chain =
        fuzz::makeFuzzCircuit(fuzz::FuzzShape::Chain, opt, rng);
    for (const Gate &g : chain.gates()) {
        if (g.kind == GateKind::CX) {
            EXPECT_EQ(g.q1 - g.q0, 1); // nearest neighbour only
        }
    }

    const Circuit tree =
        fuzz::makeFuzzCircuit(fuzz::FuzzShape::FanoutTree, opt, rng);
    for (const Gate &g : tree.gates()) {
        if (g.kind == GateKind::CX) {
            EXPECT_EQ(g.q0, (g.q1 - 1) / 2); // parent -> child edges
        }
    }
}

TEST(FuzzGenerator, RejectsDegenerateSizes)
{
    Rng rng(1);
    fuzz::FuzzCircuitOptions opt;
    opt.num_qubits = 1;
    EXPECT_THROW(
        fuzz::makeFuzzCircuit(fuzz::FuzzShape::Mixed, opt, rng),
        InternalError);
    opt.num_qubits = 4;
    opt.num_gates = 0;
    EXPECT_THROW(
        fuzz::makeFuzzCircuit(fuzz::FuzzShape::Mixed, opt, rng),
        InternalError);
}

TEST(PolicyMask, ParsesNamesAndNumbers)
{
    EXPECT_EQ(fuzz::parsePolicyMask("7"), fuzz::kMaskAll);
    EXPECT_EQ(fuzz::parsePolicyMask("1"), fuzz::kMaskBaseline);
    EXPECT_EQ(fuzz::parsePolicyMask("baseline"),
              fuzz::kMaskBaseline);
    EXPECT_EQ(fuzz::parsePolicyMask("sp,full"),
              fuzz::kMaskAutobraidSP | fuzz::kMaskAutobraidFull);
    EXPECT_EQ(fuzz::parsePolicyMask("all"), fuzz::kMaskAll);
    EXPECT_THROW(fuzz::parsePolicyMask("0"), UserError);
    EXPECT_THROW(fuzz::parsePolicyMask("turbo"), UserError);
    EXPECT_EQ(fuzz::policyMaskName(fuzz::kMaskAll),
              "baseline,sp,full");
}

TEST(Differential, FixedSeedBlockIsClean)
{
    // The committed regression block: these seeds must compile, pass
    // the strengthened validator, and agree across all three policies.
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        const fuzz::FuzzCase c = fuzz::makeFuzzCase(seed);
        const auto r = fuzz::runDifferentialCase(c);
        EXPECT_TRUE(r.ok) << r.toString();
        EXPECT_EQ(r.runs.size(), 3u);
    }
}

TEST(Differential, PortfolioOracleCoversWinningAlternatives)
{
    // Seeds whose full-policy compile keeps an alternative: the
    // Maslov network wins 274 and 909, the p = 0 re-run 912 and 1617.
    // The compile, whose alternatives stop once they cannot win, must
    // keep what the portfolio rebuilt from runs with no limit keeps.
    const std::pair<uint64_t, const char *> wins[] = {
        {274, "maslov_won"},
        {909, "maslov_won"},
        {912, "p0_fallback_won"},
        {1617, "p0_fallback_won"}};
    for (const auto &[seed, counter] : wins) {
        const fuzz::FuzzCase c = fuzz::makeFuzzCase(seed);
        const auto r =
            fuzz::runDifferentialCase(c, fuzz::kMaskAutobraidFull);
        EXPECT_TRUE(r.ok) << r.toString();
        ASSERT_EQ(r.runs.size(), 1u);
        EXPECT_EQ(r.runs[0].report.counters.count(counter), 1u)
            << "seed " << seed;
    }
}

TEST(Differential, MaskLimitsPolicies)
{
    const fuzz::FuzzCase c = fuzz::makeFuzzCase(3);
    const auto r =
        fuzz::runDifferentialCase(c, fuzz::kMaskAutobraidSP);
    EXPECT_TRUE(r.ok) << r.toString();
    ASSERT_EQ(r.runs.size(), 1u);
    EXPECT_EQ(r.runs[0].policy, SchedulerPolicy::AutobraidSP);
}

TEST(Differential, BatchDeterminismOnFixedSeeds)
{
    for (uint64_t seed : {2u, 9u, 17u}) {
        const fuzz::FuzzCase c = fuzz::makeFuzzCase(seed);
        const auto failures = fuzz::checkBatchDeterminism(c);
        EXPECT_TRUE(failures.empty())
            << "seed " << seed << ": " << failures.front();
    }
}

TEST(Differential, DegenerateStripGridsAreClean)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const auto r = fuzz::runDegenerateGridCase(seed);
        EXPECT_TRUE(r.ok) << r.toString();
    }
}

TEST(Shrinker, PrefixCopiesGatesInOrder)
{
    Circuit c(3, "p");
    c.h(0);
    c.cx(0, 1);
    c.t(2);
    const Circuit p = fuzz::circuitPrefix(c, 2);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.numQubits(), 3);
    EXPECT_EQ(p.gate(1).kind, GateKind::CX);
    EXPECT_THROW(fuzz::circuitPrefix(c, 4), InternalError);
}

TEST(Shrinker, FindsMinimalReproducer)
{
    // Failure = "contains a CX touching qubit 5". 60 noise gates
    // around one culprit must shrink to exactly that gate.
    Circuit c(8, "noise");
    for (int i = 0; i < 30; ++i)
        c.h(static_cast<Qubit>(i % 4));
    c.cx(5, 2);
    for (int i = 0; i < 30; ++i)
        c.t(static_cast<Qubit>(i % 4));
    auto fails = [](const Circuit &candidate) {
        for (const Gate &g : candidate.gates())
            if (g.kind == GateKind::CX && (g.q0 == 5 || g.q1 == 5))
                return true;
        return false;
    };
    const auto out = fuzz::shrinkCircuit(c, fails);
    EXPECT_EQ(out.circuit.size(), 1u);
    EXPECT_EQ(out.circuit.gate(0).kind, GateKind::CX);
    EXPECT_EQ(out.original_gates, 61u);
    EXPECT_EQ(out.final_gates, 1u);
    EXPECT_EQ(out.circuit.numQubits(), 8);
    EXPECT_TRUE(fails(out.circuit));
}

TEST(Shrinker, ResultAlwaysReproducesTheFailure)
{
    // Non-monotone predicate (fails only on an *even* number of T
    // gates >= 2): whatever the heuristics do, the output must fail.
    Circuit c(4, "parity");
    for (int i = 0; i < 17; ++i)
        c.t(static_cast<Qubit>(i % 4));
    c.h(0);
    auto fails = [](const Circuit &candidate) {
        size_t ts = 0;
        for (const Gate &g : candidate.gates())
            if (g.kind == GateKind::T)
                ++ts;
        return ts >= 2 && ts % 2 == 0;
    };
    ASSERT_FALSE(fails(c)); // 17 Ts: odd — full circuit passes...
    Circuit c2 = c;
    c2.t(0); // ...18 Ts fail
    ASSERT_TRUE(fails(c2));
    const auto out = fuzz::shrinkCircuit(c2, fails);
    EXPECT_TRUE(fails(out.circuit));
    EXPECT_LE(out.circuit.size(), c2.size());
}

TEST(Shrinker, RespectsCheckBudget)
{
    Circuit c(4, "budget");
    for (int i = 0; i < 50; ++i)
        c.h(static_cast<Qubit>(i % 4));
    fuzz::ShrinkOptions opt;
    opt.max_checks = 10;
    size_t calls = 0;
    auto fails = [&calls](const Circuit &) {
        ++calls;
        return true;
    };
    const auto out = fuzz::shrinkCircuit(c, fails, opt);
    EXPECT_LE(out.checks, 10u);
    EXPECT_EQ(out.checks, calls);
    EXPECT_TRUE(fails(out.circuit));
}

TEST(Harness, SmokeRunIsCleanAndCountsStrides)
{
    fuzz::FuzzOptions opt;
    opt.start_seed = 1;
    opt.seeds = 6;
    opt.batch_stride = 2;
    opt.degenerate_stride = 3;
    opt.route_jobs_stride = 3;
    const auto summary = fuzz::runFuzz(opt);
    EXPECT_TRUE(summary.ok()) << summary.toString();
    EXPECT_EQ(summary.cases, 6);
    EXPECT_EQ(summary.batch_checks, 3);     // cases 0, 2, 4
    EXPECT_EQ(summary.route_jobs_checks, 2); // cases 0, 3
    EXPECT_EQ(summary.degenerate_cases, 2); // cases 0, 3
    EXPECT_FALSE(summary.budget_exhausted);
    EXPECT_NE(summary.toString().find("6 cases"), std::string::npos);
}

TEST(Harness, BudgetStopsEarly)
{
    fuzz::FuzzOptions opt;
    opt.seeds = 100000;
    opt.budget_seconds = 0.05;
    const auto summary = fuzz::runFuzz(opt);
    EXPECT_TRUE(summary.budget_exhausted);
    EXPECT_LT(summary.cases, opt.seeds);
}

} // namespace
} // namespace autobraid
