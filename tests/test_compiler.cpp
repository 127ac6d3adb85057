/**
 * @file
 * Compiler driver tests: the fixed stage sequence, option validation
 * at the driver entry point, per-stage instrumentation (timing fields
 * derived from the stage timings), the telemetry on/off contract
 * across every generator family and the bundled QASM circuits,
 * telemetry that describes the kept schedule, and BatchCompiler
 * determinism across thread counts.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "qasm/elaborator.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace {

Circuit
smallCircuit()
{
    Circuit circuit(6, "pm-test");
    circuit.h(0);
    for (Qubit q = 1; q < 6; ++q)
        circuit.cx(0, q);
    for (Qubit q = 0; q < 6; ++q)
        circuit.t(q);
    return circuit;
}

std::vector<std::string>
stageNames(const CompileReport &report)
{
    std::vector<std::string> names;
    for (const PassTiming &t : report.pass_timings)
        names.push_back(t.pass);
    return names;
}

TEST(Driver, StageSequence)
{
    const std::vector<std::string> standard{
        "parallelism-analysis", "initial-placement", "schedule",
        "maslov-fallback",      "validate",          "report"};
    EXPECT_EQ(stageNames(compileCircuit(smallCircuit())), standard);

    CompileOptions opt;
    opt.lint.level = lint::LintLevel::All;
    opt.schedule_out = ::testing::TempDir() + "ab_stage_sequence.json";
    const std::vector<std::string> all{
        "parallelism-analysis", "initial-placement", "lint",
        "schedule",             "maslov-fallback",   "validate",
        "report",               "schedule-lint",     "schedule-export"};
    EXPECT_EQ(stageNames(compileCircuit(smallCircuit(), opt)), all);
}

TEST(Driver, TimingFieldsDeriveFromPassTimings)
{
    const CompileReport report = compileCircuit(smallCircuit());
    ASSERT_FALSE(report.pass_timings.empty());
    double sum = 0;
    for (const PassTiming &t : report.pass_timings)
        sum += t.seconds;
    EXPECT_DOUBLE_EQ(report.total_seconds, sum);
    EXPECT_DOUBLE_EQ(report.placement_seconds,
                     report.passSeconds("initial-placement"));
    EXPECT_GE(report.total_seconds, report.placement_seconds);
}

TEST(Driver, ReportSurfacesScheduleCounters)
{
    const CompileReport report = compileCircuit(smallCircuit());
    EXPECT_EQ(report.counters.at("routed_cx"),
              static_cast<long>(report.result.braids_routed));
    EXPECT_EQ(report.counters.at("deferred_cx"),
              static_cast<long>(report.result.routing_failures));
    EXPECT_EQ(report.counters.at("swaps_inserted"),
              static_cast<long>(report.result.swaps_inserted));
    EXPECT_EQ(report.counters.at("layout_invocations"),
              static_cast<long>(report.result.layout_invocations));
    EXPECT_EQ(report.counters.at("critical_path_cycles"),
              static_cast<long>(report.critical_path));
}

TEST(Driver, ValidateRejectsBadOptions)
{
    const Circuit circuit = smallCircuit();
    CompileOptions bad_p;
    bad_p.p_threshold = 1.5;
    EXPECT_THROW(compileCircuit(circuit, bad_p), UserError);
    bad_p.p_threshold = -0.1;
    EXPECT_THROW(compileCircuit(circuit, bad_p), UserError);

    CompileOptions bad_defect;
    bad_defect.dead_vertices = {10'000};
    EXPECT_THROW(compileCircuit(circuit, bad_defect), UserError);
    bad_defect.dead_vertices = {-1};
    EXPECT_THROW(compileCircuit(circuit, bad_defect), UserError);

    CompileOptions bad_distance;
    bad_distance.cost.distance = 0;
    EXPECT_THROW(compileCircuit(circuit, bad_distance), UserError);

    // Zero-qubit circuits cannot even be constructed.
    EXPECT_THROW(Circuit(0, "empty"), UserError);
}

/** Compile @p circuit with telemetry off and on; summaries must match. */
void
expectTelemetryLeavesSummary(const Circuit &circuit, CompileOptions opt,
                             const std::string &what)
{
    opt.telemetry.enabled = false;
    const CompileReport off = compileCircuit(circuit, opt);
    opt.telemetry.enabled = true;
    const CompileReport on = compileCircuit(circuit, opt);
    ASSERT_NE(on.telemetry, nullptr) << what;
    EXPECT_EQ(off.metricsSummary(), on.metricsSummary()) << what;
}

TEST(Driver, TelemetryLeavesSummaryUnchangedOnBundledQasm)
{
    for (const char *file : {"adder4.qasm", "grover3.qasm"}) {
        const Circuit circuit = qasm::loadCircuit(
            std::string(AB_CIRCUITS_DIR) + "/" + file);
        for (SchedulerPolicy policy :
             {SchedulerPolicy::Baseline, SchedulerPolicy::AutobraidSP,
              SchedulerPolicy::AutobraidFull}) {
            CompileOptions opt;
            opt.policy = policy;
            expectTelemetryLeavesSummary(circuit, opt, file);
        }
    }
}

TEST(Driver, TelemetryLeavesSummaryUnchangedOnEveryGeneratorFamily)
{
    // One small instance per family in src/gen.
    const std::vector<std::string> specs{
        "qft:9",        "bv:9",     "cc:9",     "im:9:2",
        "qaoa:8:2",     "bwt:8",    "shor:3:2", "qpe:4:3",
        "grover:4",     "adder:4",  "ghz:8",    "randct:8:60:1",
        "mct:6:40:1",   "revlib:rd32-v0"};
    for (const std::string &spec : specs)
        expectTelemetryLeavesSummary(gen::make(spec), {}, spec);
}

TEST(Driver, TelemetryDescribesTheKeptSchedule)
{
    // A full-policy braiding compile of an all-to-all circuit runs the
    // triggered schedule, the p = 0 re-run and the Maslov network; the
    // makespan gauge and the stall counters must describe the schedule
    // the report keeps, not whichever run finished last.
    CompileOptions opt;
    opt.record_lifecycle = true;
    opt.telemetry.enabled = true;
    const CompileReport report = compileCircuit(gen::make("qft:32"), opt);
    ASSERT_EQ(report.counters.count("maslov_considered"), 1u);
    ASSERT_NE(report.telemetry, nullptr);
    ASSERT_NE(report.result.recording, nullptr);
    const telemetry::MetricsRegistry &m = report.telemetry->metrics();
    EXPECT_EQ(m.gauge("sched.makespan_cycles"),
              static_cast<double>(report.result.makespan));
    for (size_t c = 0; c < telemetry::kNumStallCauses; ++c) {
        const char *cause =
            telemetry::stallCauseName(static_cast<telemetry::StallCause>(c));
        EXPECT_EQ(m.counter(std::string("sched.stall_cycles.") + cause),
                  static_cast<long long>(
                      report.result.recording->stall_totals[c]))
            << cause;
    }
}

TEST(Batch, DeriveJobSeedIsStableAndSpreads)
{
    EXPECT_EQ(deriveJobSeed(2021, 0), deriveJobSeed(2021, 0));
    EXPECT_NE(deriveJobSeed(2021, 0), deriveJobSeed(2021, 1));
    EXPECT_NE(deriveJobSeed(2021, 0), deriveJobSeed(2022, 0));
}

TEST(Batch, DeterministicAcrossThreadCounts)
{
    const std::vector<std::string> specs{"qft:9", "im:9:2", "qaoa:8:2",
                                         "bv:9",  "adder:4", "ghz:8"};
    auto digest = [&specs](int threads) {
        BatchOptions opts;
        opts.threads = threads;
        BatchCompiler batch(opts);
        for (const std::string &spec : specs)
            batch.addSpec(spec);
        std::string out;
        for (const BatchResult &res : batch.compileAll()) {
            EXPECT_TRUE(res.ok) << res.label << ": " << res.error;
            out += res.label + "\n" + res.report.metricsSummary();
        }
        return out;
    };
    const std::string one = digest(1);
    EXPECT_EQ(one, digest(8));
    EXPECT_EQ(one, digest(3));
    EXPECT_FALSE(one.empty());
}

TEST(Batch, ResultsStayInInputOrderWithDerivedSeeds)
{
    BatchOptions opts;
    opts.threads = 4;
    BatchCompiler batch(opts);
    batch.addSpec("qft:9");
    batch.addSpec("adder:4");
    batch.add(smallCircuit(), {}, "inline-job");
    const auto results = batch.compileAll();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].label, "qft:9");
    EXPECT_EQ(results[1].label, "adder:4");
    EXPECT_EQ(results[2].label, "inline-job");
}

TEST(Batch, PerJobErrorsDoNotPoisonTheBatch)
{
    BatchOptions opts;
    opts.threads = 2;
    BatchCompiler batch(opts);
    batch.addSpec("qft:9");
    CompileOptions bad;
    bad.p_threshold = 7.0;
    batch.add(smallCircuit(), bad, "bad-job");
    const auto results = batch.compileAll();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("p_threshold"),
              std::string::npos);
}

TEST(Batch, BadSpecThrowsAtAddTime)
{
    BatchCompiler batch;
    EXPECT_THROW(batch.addSpec("nonsense:1"), UserError);
    EXPECT_EQ(batch.jobCount(), 0u);
}

} // namespace
} // namespace autobraid
