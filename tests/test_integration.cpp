/**
 * @file
 * Cross-module integration tests: every policy on every benchmark
 * family produces a legal braiding schedule (dependences respected,
 * overlapping braids vertex-disjoint, durations correct), makespans are
 * bounded below by the critical path, results are deterministic, and
 * the paper's headline orderings hold.
 */

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "qasm/elaborator.hpp"
#include "sched/policy.hpp"
#include "sched/validator.hpp"

namespace autobraid {
namespace {

struct Case
{
    const char *spec;
    SchedulerPolicy policy;
};

// Without this gtest prints a Case as raw bytes. Those include the
// `spec` pointer, which ASLR moves on every run, so the test names that
// ctest discovers at build time would change from build to build.
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.spec << ' ' << policyCliName(c.policy);
}

std::string
caseName(const testing::TestParamInfo<Case> &info)
{
    std::string name = info.param.spec;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    switch (info.param.policy) {
      case SchedulerPolicy::Baseline: name += "_base"; break;
      case SchedulerPolicy::AutobraidSP: name += "_sp"; break;
      case SchedulerPolicy::AutobraidFull: name += "_full"; break;
    }
    return name;
}

class EndToEnd : public testing::TestWithParam<Case>
{};

TEST_P(EndToEnd, ScheduleIsLegalAndBounded)
{
    const Case &param = GetParam();
    const Circuit circuit = gen::make(param.spec);
    CompileOptions opt;
    opt.policy = param.policy;
    opt.record_trace = true;
    const CompileReport report = compileCircuit(circuit, opt);

    EXPECT_TRUE(report.result.valid);
    EXPECT_EQ(report.result.gates_scheduled, circuit.size());
    EXPECT_GE(report.result.makespan, report.critical_path);
    const ValidationReport v =
        validateSchedule(circuit, report.result, opt.cost);
    EXPECT_TRUE(v.ok) << v.toString();
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, EndToEnd,
    testing::Values(
        Case{"qft:12", SchedulerPolicy::Baseline},
        Case{"qft:12", SchedulerPolicy::AutobraidSP},
        Case{"qft:12", SchedulerPolicy::AutobraidFull},
        Case{"bv:16", SchedulerPolicy::Baseline},
        Case{"bv:16", SchedulerPolicy::AutobraidSP},
        Case{"bv:16", SchedulerPolicy::AutobraidFull},
        Case{"cc:16", SchedulerPolicy::AutobraidFull},
        Case{"im:16:3", SchedulerPolicy::Baseline},
        Case{"im:16:3", SchedulerPolicy::AutobraidSP},
        Case{"im:16:3", SchedulerPolicy::AutobraidFull},
        Case{"qaoa:16:2", SchedulerPolicy::Baseline},
        Case{"qaoa:16:2", SchedulerPolicy::AutobraidFull},
        Case{"bwt:24:2", SchedulerPolicy::AutobraidFull},
        Case{"shor:5:4", SchedulerPolicy::AutobraidFull},
        Case{"revlib:rd32-v0", SchedulerPolicy::Baseline},
        Case{"revlib:rd32-v0", SchedulerPolicy::AutobraidFull},
        Case{"mct:6:60:3", SchedulerPolicy::AutobraidSP}),
    caseName);

TEST(Integration, DeterministicAcrossRuns)
{
    const Circuit c = gen::make("qft:12");
    CompileOptions opt;
    opt.policy = SchedulerPolicy::AutobraidFull;
    const auto a = compileCircuit(c, opt);
    const auto b = compileCircuit(c, opt);
    EXPECT_EQ(a.result.makespan, b.result.makespan);
    EXPECT_EQ(a.result.swaps_inserted, b.result.swaps_inserted);
}

TEST(Integration, SeedChangesPlacementNotLegality)
{
    const Circuit c = gen::make("qaoa:16:2");
    CompileOptions a, b;
    a.seed = 1;
    b.seed = 99;
    a.record_trace = b.record_trace = true;
    const auto ra = compileCircuit(c, a);
    const auto rb = compileCircuit(c, b);
    const ValidationReport va = validateSchedule(c, ra.result, a.cost);
    const ValidationReport vb = validateSchedule(c, rb.result, b.cost);
    EXPECT_TRUE(va.ok) << va.toString();
    EXPECT_TRUE(vb.ok) << vb.toString();
}

TEST(Integration, QasmToScheduleEndToEnd)
{
    const char *src = "OPENQASM 2.0;\n"
                      "include \"qelib1.inc\";\n"
                      "qreg q[4]; creg c[4];\n"
                      "h q;\n"
                      "cx q[0],q[1]; cx q[2],q[3];\n"
                      "ccx q[0],q[2],q[3];\n"
                      "cu1(pi/4) q[1],q[3];\n"
                      "barrier q;\n"
                      "measure q -> c;\n";
    const Circuit circuit = qasm::parseToCircuit(src, "mini");
    CompileOptions opt;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    EXPECT_EQ(report.result.gates_scheduled, circuit.size());
    const ValidationReport v =
        validateSchedule(circuit, report.result, opt.cost);
    EXPECT_TRUE(v.ok) << v.toString();
}

TEST(Integration, BvAllPoliciesHitCriticalPath)
{
    // BV has zero CX parallelism (paper Fig. 6): every policy should
    // land on the critical path.
    const Circuit c = gen::make("bv:25");
    for (auto policy :
         {SchedulerPolicy::Baseline, SchedulerPolicy::AutobraidSP,
          SchedulerPolicy::AutobraidFull}) {
        CompileOptions opt;
        opt.policy = policy;
        const auto rep = compileCircuit(c, opt);
        EXPECT_EQ(rep.result.makespan, rep.critical_path)
            << policyName(policy);
    }
}

TEST(Integration, IsingAutobraidHitsCpBaselineDoesNot)
{
    // The paper's IM rows: autobraid == CP, baseline ~2-3x worse.
    const Circuit c = gen::make("im:100:2");
    CompileOptions ours;
    ours.policy = SchedulerPolicy::AutobraidFull;
    CompileOptions base;
    base.policy = SchedulerPolicy::Baseline;
    const auto ro = compileCircuit(c, ours);
    const auto rb = compileCircuit(c, base);
    EXPECT_EQ(ro.result.makespan, ro.critical_path);
    EXPECT_GT(rb.result.makespan, ro.result.makespan);
}

TEST(Integration, QftSpeedupGrowsWithSize)
{
    // Fig. 16 shape: the autobraid/baseline gap widens with scale.
    double speedup_small = 0, speedup_large = 0;
    for (int n : {16, 36}) {
        const Circuit c = gen::make("qft:" + std::to_string(n));
        CompileOptions base, full;
        base.policy = SchedulerPolicy::Baseline;
        full.policy = SchedulerPolicy::AutobraidFull;
        const double b =
            static_cast<double>(compileCircuit(c, base).result
                                    .makespan);
        const double f =
            static_cast<double>(compileCircuit(c, full).result
                                    .makespan);
        (n == 16 ? speedup_small : speedup_large) = b / f;
    }
    EXPECT_GT(speedup_small, 1.0);
    EXPECT_GE(speedup_large, 0.9 * speedup_small);
}

TEST(Integration, UtilizationBounded)
{
    const Circuit c = gen::make("qaoa:36:4");
    CompileOptions opt;
    const auto rep = compileCircuit(c, opt);
    EXPECT_GE(rep.result.peak_utilization, 0.0);
    EXPECT_LE(rep.result.peak_utilization, 1.0);
    EXPECT_LE(rep.result.avg_utilization,
              rep.result.peak_utilization + 1e-9);
}

TEST(Integration, CompileTimeIsSmallFractionOfPhysicalTime)
{
    // Paper §4.2: compilation takes ~1-2% of physical execution time.
    // Physical time for even modest circuits is milliseconds of
    // wall-clock per microsecond of physical time, so just sanity-check
    // that compile time is recorded and finite.
    const Circuit c = gen::make("qft:20");
    CompileOptions opt;
    const auto rep = compileCircuit(c, opt);
    EXPECT_GT(rep.total_seconds, 0.0);
    EXPECT_LT(rep.total_seconds, 60.0);
}

} // namespace
} // namespace autobraid
