/**
 * @file
 * JSON well-formedness tests: an independent syntax checker
 * (json_checker.hpp) validates every document kind the exporters emit
 * (reports, schedules, certificates, recordings, Chrome traces,
 * metrics and serve reply bodies) across policies, backends and
 * hostile names, so downstream tooling can rely on the output being
 * syntactically correct.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/certify.hpp"
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "json_checker.hpp"
#include "lattice/cost_model.hpp"
#include "place/placement.hpp"
#include "serve/service.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "viz/json.hpp"

namespace autobraid {
namespace {

TEST(JsonWellformed, CheckerSanity)
{
    EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":"x\n"})")
                    .valid());
    EXPECT_TRUE(JsonChecker("[]").valid());
    EXPECT_FALSE(JsonChecker("{").valid());
    EXPECT_FALSE(JsonChecker(R"({"a":})").valid());
    EXPECT_FALSE(JsonChecker(R"("unterminated)").valid());
    EXPECT_FALSE(JsonChecker("[1,2,]trailing").valid());
}

class JsonEmission : public testing::TestWithParam<const char *>
{};

/** The schedule export of @p report, a compile of @p circuit. */
std::string
scheduleJson(const Circuit &circuit, const CompileOptions &opt,
             const CompileReport &report)
{
    const Grid grid = Grid::forQubits(circuit.numQubits());
    return scheduleToJson(
        scheduleExportInfo(circuit, grid, opt, report), report.result);
}

TEST_P(JsonEmission, ReportsAreValidJson)
{
    const Circuit circuit = gen::make(GetParam());
    for (auto policy : {SchedulerPolicy::Baseline,
                        SchedulerPolicy::AutobraidFull}) {
        CompileOptions opt;
        opt.policy = policy;
        opt.record_trace = true;
        const auto report = compileCircuit(circuit, opt);
        EXPECT_TRUE(
            JsonChecker(viz::reportToJson(report, opt.cost)).valid())
            << GetParam();
        const std::string schedule =
            scheduleJson(circuit, opt, report);
        EXPECT_TRUE(JsonChecker(schedule).valid()) << GetParam();
        EXPECT_TRUE(JsonChecker(certify::certifyScheduleText(schedule)
                                    .toJson())
                        .valid())
            << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Specs, JsonEmission,
                         testing::Values("qft:9", "im:9:2",
                                         "grover:4", "ghz:8"));

TEST(JsonWellformed, HostileCircuitName)
{
    // Quotes, a backslash and control bytes must come out escaped in
    // every document that carries the circuit name.
    Circuit c(2, "we\"ird\\name\nwith\tjunk\x01\x1f");
    c.cx(0, 1);
    CompileOptions opt;
    opt.record_trace = true;
    opt.record_lifecycle = true;
    const auto report = compileCircuit(c, opt);
    ASSERT_NE(report.result.recording, nullptr);
    const std::string schedule = scheduleJson(c, opt, report);
    for (const std::string &json :
         {viz::reportToJson(report, opt.cost), schedule,
          certify::certifyScheduleText(schedule).toJson(),
          report.result.recording->toJson(),
          telemetry::chromeTraceJson(report, opt.cost),
          serve::reportBody(report)}) {
        EXPECT_TRUE(JsonChecker(json).valid()) << json;
        EXPECT_NE(json.find("we\\\"ird\\\\name\\nwith\\tjunk"
                            "\\u0001\\u001f"),
                  std::string::npos)
            << json;
    }
}

TEST(JsonWellformed, ChromeTraceIsValidJson)
{
    const Circuit circuit = gen::make("qft:9");
    CompileOptions opt;
    opt.record_trace = true;
    opt.telemetry.enabled = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json =
        telemetry::chromeTraceJson(report, opt.cost);
    EXPECT_TRUE(JsonChecker(json).valid());
    // Both processes must be present for Perfetto to show tracks.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("compiler (wall clock)"), std::string::npos);
    EXPECT_NE(json.find("schedule (simulated)"), std::string::npos);
}

TEST(JsonWellformed, ChromeTraceWithoutTelemetryStillValid)
{
    // Telemetry off: the exporter synthesizes a pass-timing track.
    const Circuit circuit = gen::make("ghz:8");
    CompileOptions opt;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json =
        telemetry::chromeTraceJson(report, opt.cost);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"cat\":\"pass\""), std::string::npos);
}

TEST(JsonWellformed, ChromeTraceSurgeryBackendValid)
{
    // The exporter must stay well-formed when the schedule comes from
    // the lattice-surgery backend (merge regions, no braid paths).
    const Circuit circuit = gen::make("im:9:2");
    CompileOptions opt;
    opt.backend = SchedulerBackend::LatticeSurgery;
    opt.record_trace = true;
    opt.telemetry.enabled = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json =
        telemetry::chromeTraceJson(report, opt.cost);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("schedule (simulated)"), std::string::npos);
}

TEST(JsonWellformed, ChromeTraceValidUnderBatchThreads)
{
    // Spans recorded on 8 worker threads must still serialize into a
    // syntactically valid trace for every job.
    BatchOptions bopt;
    bopt.threads = 8;
    BatchCompiler batch(bopt);
    for (const char *spec : {"qft:9", "ghz:8", "im:9:2", "qft:10"}) {
        CompileOptions opt;
        opt.record_trace = true;
        opt.telemetry.enabled = true;
        batch.addSpec(spec, opt);
    }
    const CostModel cost; // every job compiled with the default model
    for (const BatchResult &r : batch.compileAll()) {
        ASSERT_TRUE(r.ok) << r.error;
        const std::string json =
            telemetry::chromeTraceJson(r.report, cost);
        EXPECT_TRUE(JsonChecker(json).valid()) << r.label;
    }
}

TEST(JsonWellformed, FlightRecordingJson)
{
    const Circuit circuit = gen::make("qft:9");
    for (auto backend : {SchedulerBackend::Braiding,
                         SchedulerBackend::LatticeSurgery}) {
        CompileOptions opt;
        opt.backend = backend;
        opt.record_lifecycle = true;
        const auto report = compileCircuit(circuit, opt);
        ASSERT_NE(report.result.recording, nullptr);
        EXPECT_TRUE(
            JsonChecker(report.result.recording->toJson()).valid());
    }
}

TEST(JsonWellformed, MetricsRegistryJson)
{
    const Circuit circuit = gen::make("im:9:2");
    CompileOptions opt;
    opt.telemetry.enabled = true;
    const auto report = compileCircuit(circuit, opt);
    ASSERT_NE(report.telemetry, nullptr);
    const std::string json = report.telemetry->metrics().toJson();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_TRUE(JsonChecker(telemetry::MetricsRegistry().toJson())
                    .valid());
}

// --------------------------------------------------------------------
// Golden documents: one small document per kind from hand-set inputs,
// with no compile, so compiler changes cannot move them. The expected
// bytes come from the emitters as they were before json::Writer, when
// each wrote its JSON by hand with strformat, and pin the port to them.
// --------------------------------------------------------------------

TEST(JsonGolden, CompileDocuments)
{
    // "h; cx" on a 2x2 grid: a local gate, a braid and an inserted
    // SWAP, with a quote in the circuit and a pass name.
    Circuit circuit(2, "g\"1");
    circuit.h(0);
    circuit.cx(0, 1);
    CompileReport report;
    report.circuit_name = circuit.name();
    report.num_qubits = 2;
    report.num_gates = 2;
    report.grid_side = 2;
    report.critical_path = 10;
    report.placement_seconds = 0.25;
    report.total_seconds = 0.2500015;
    report.pass_timings = {{"place", 0.25}, {"sched\"ule", 1.5e-6}};
    report.counters = {{"routed_cx", 1}, {"swaps_inserted", -1}};
    ScheduleResult &r = report.result;
    r.makespan = 12;
    r.braids_routed = 1;
    r.swaps_inserted = 1;
    r.peak_utilization = 0.5;
    r.avg_utilization = 1.0 / 3;
    // gate, start, finish, path, channel release, SWAP pair
    r.trace = {{0, 0, 2, Path{}, 0, kNoQubit, kNoQubit},
               {1, 2, 10, Path{{0, 1, 4}}, 6, kNoQubit, kNoQubit},
               {kNoGate, 10, 12, Path{}, 0, 0, 1}};
    const Grid grid(2, 2);
    const Placement placement(grid, 2);
    const ScheduleExportInfo info{&circuit, &grid,
                                  SchedulerPolicy::AutobraidSP, 33, 4,
                                  false, {3, 7}, &placement};
    EXPECT_EQ(scheduleToJson(info, r), R"J({
  "format": "autobraid-schedule",
  "version": 1,
  "circuit": "g\"1",
  "policy": "autobraid-sp",
  "backend": "braiding",
  "distance": 33,
  "grid_rows": 2,
  "grid_cols": 2,
  "num_qubits": 2,
  "channel_hold_cycles": 4,
  "used_maslov": false,
  "swaps_inserted": 1,
  "braids_routed": 1,
  "makespan": 12,
  "dead_vertices": [3, 7],
  "placement": [0, 1],
  "gates": [
    {"kind": "h", "q0": 0, "q1": -1},
    {"kind": "cx", "q0": 0, "q1": 1}
  ],
  "schedule": [
    {"gate": 0, "start": 0, "finish": 2, "release": 2, "path": []},
    {"gate": 1, "start": 2, "finish": 10, "release": 6, "path": [0, 1, 4]},
    {"gate": -1, "start": 10, "finish": 12, "release": 12, "swap_a": 0, "swap_b": 1, "path": []}
  ]
}
)J");
    EXPECT_EQ(viz::reportToJson(report, CostModel()),
        R"J({"circuit":"g\"1","policy":"autobraid-full",)J"
        R"J("backend":"braiding","num_qubits":2,"num_gates":2,)J"
        R"J("grid_side":2,"distance":33,"critical_path_cycles":10,)J"
        R"J("makespan_cycles":12,"makespan_us":26.400,)J"
        R"J("cp_ratio":1.200000,"braids":1,"swaps":1,)J"
        R"J("routing_failures":0,"peak_utilization":0.500000,)J"
        R"J("avg_utilization":0.333333,"used_maslov":false,)J"
        R"J("placement_seconds":0.250000,"compile_seconds":0.250001,)J"
        R"J("passes":[{"name":"place","seconds":0.250000},)J"
        R"J({"name":"sched\"ule","seconds":0.000002}],)J"
        R"J("counters":{"routed_cx":1,"swaps_inserted":-1}})J");
    EXPECT_EQ(telemetry::chromeTraceJson(report, CostModel()),
        R"J({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":1,)J"
        R"J("name":"process_name",)J"
        R"J("args":{"name":"compiler (wall clock)"}},{"ph":"M",)J"
        R"J("pid":2,"name":"process_name",)J"
        R"J("args":{"name":"schedule (simulated): g\"1"}},{"ph":"X",)J"
        R"J("pid":1,"tid":1,"cat":"pass","name":"pass.place",)J"
        R"J("ts":0.000,"dur":250000.000},{"ph":"X","pid":1,"tid":1,)J"
        R"J("cat":"pass","name":"pass.sched\"ule","ts":250000.000,)J"
        R"J("dur":1.500},{"ph":"X","pid":2,"tid":1,"cat":"local",)J"
        R"J("name":"gate 0","ts":0.000,"dur":4.400},{"ph":"X",)J"
        R"J("pid":2,"tid":1,"cat":"braid","name":"braid 1",)J"
        R"J("ts":4.400,"dur":17.600,"args":{"path_vertices":3,)J"
        R"J("release_us":13.200}},{"ph":"X","pid":2,"tid":1,)J"
        R"J("cat":"swap","name":"swap q0<->q1","ts":22.000,)J"
        R"J("dur":4.400},{"ph":"C","pid":2,"tid":0,)J"
        R"J("name":"utilization","ts":4.400,)J"
        R"J("args":{"busy_fraction":0.333333}},{"ph":"C","pid":2,)J"
        R"J("tid":0,"name":"utilization","ts":13.200,)J"
        R"J("args":{"busy_fraction":0.000000}}]})J");
}

TEST(JsonGolden, CertificateAndRecording)
{
    const certify::Certificate cert{
        false, "c\\1", "full", "braiding", 2, 1, 0, 7, 5, 6, 6, 7.0 / 6,
        {{"dependence", "gate 1 \"cx\"\tstarts early"}}};
    EXPECT_EQ(cert.toJson(), R"J({
  "format": "autobraid-certificate",
  "version": 1,
  "ok": false,
  "circuit": "c\\1",
  "policy": "full",
  "backend": "braiding",
  "gates": 2,
  "scheduled": 1,
  "swaps": 0,
  "makespan": 7,
  "critical_path_bound": 5,
  "channel_bound": 6,
  "lower_bound": 6,
  "optimality_gap": 1.166667,
  "violations": [
    {"check": "dependence", "message": "gate 1 \"cx\"\tstarts early"}
  ]
}
)J");
    const telemetry::FlightRecording rec{
        "r\n", "sp", "surgery", 1, 3, 9,
        {{0, 4, 9, {3, 1, 0, 0}, 2, 0, 1, "cx"},
         {telemetry::kNoCycle, telemetry::kNoCycle, telemetry::kNoCycle,
          {0, 0, 0, 0}, 0, 2, -1, "h"}},
        {{0, 1, telemetry::StallCause::Congestion}},
        {0, 9, 4},
        {3, 1, 0, 0}};
    EXPECT_EQ(rec.toJson(), R"J({
  "format": "autobraid-recording",
  "version": 1,
  "circuit": "r\n",
  "policy": "sp",
  "backend": "surgery",
  "grid_rows": 1,
  "grid_cols": 3,
  "makespan": 9,
  "stall_totals": {"dependence": 3, "congestion": 1, "region_conflict": 0, "defect": 0},
  "gates": [
    {"gate": 0, "kind": "cx", "q0": 0, "q1": 1, "ready": 0, "dispatched": 4, "retired": 9, "blocked_attempts": 2, "stall": {"dependence": 3, "congestion": 1, "region_conflict": 0, "defect": 0}},
    {"gate": 1, "kind": "h", "q0": 2, "q1": -1, "blocked_attempts": 0, "stall": {"dependence": 0, "congestion": 0, "region_conflict": 0, "defect": 0}}
  ],
  "blocked_events": [
    {"gate": 0, "cycle": 1, "cause": "congestion"}
  ],
  "vertex_busy_cycles": [0, 9, 4]
}
)J");
}

TEST(JsonGolden, SarifResults)
{
    lint::DiagnosticEngine e;
    lint::SourceLoc loc{"a.qasm", 3, 5};
    e.reportWithFix("AB101", loc, "operands \"alias\"",
                    {{"a.qasm", 3, ""}, {"a.qasm", 4, "cx q[0],q[1];"}});
    loc.column = 0;
    e.report("AB102", loc, "no column");
    e.report("AB103", lint::SourceLoc{}, "tab\there");
    const std::string sarif = e.toSarif();
    EXPECT_EQ(sarif.substr(sarif.find("]}},\"results\":")),
        R"J(]}},"results":[{"ruleId":"AB101","level":"error",)J"
        R"J("message":{"text":"operands \"alias\""},)J"
        R"J("locations":[{"physicalLocation":{"artifactLocation":{"uri":"a.qasm"},)J"
        R"J("region":{"startLine":3,"startColumn":5}}}],)J"
        R"J("fixes":[{"description":{"text":"mechanical fix"},)J"
        R"J("artifactChanges":[{"artifactLocation":{"uri":"a.qasm"},)J"
        R"J("replacements":[{"deletedRegion":{"startLine":3,)J"
        R"J("endLine":3}}]},{"artifactLocation":{"uri":"a.qasm"},)J"
        R"J("replacements":[{"deletedRegion":{"startLine":4,)J"
        R"J("endLine":4},"insertedContent":{"text":"cx q[0],)J"
        R"J(q[1];"}}]}]}]},{"ruleId":"AB102","level":"warning",)J"
        R"J("message":{"text":"no column"},)J"
        R"J("locations":[{"physicalLocation":{"artifactLocation":{"uri":"a.qasm"},)J"
        R"J("region":{"startLine":3}}}]},{"ruleId":"AB103",)J"
        R"J("level":"note","message":{"text":"tab\there"}}]}]})J");
}

TEST(JsonGolden, Metrics)
{
    telemetry::MetricsRegistry m;
    m.add("serve.ok", 3);
    m.set("ratio", 1.0 / 3);
    m.set("big", 1e20);
    for (double v : {0.5, 3.0, 9.0})
        m.observe("lat_us", v, {1, 2, 4});
    EXPECT_EQ(m.toJson(),
        R"J({"counters":{"serve.ok":3},"gauges":{"big":1e+20,)J"
        R"J("ratio":0.333333333},"histograms":{"lat_us":{"count":3,)J"
        R"J("sum":12.5,"min":0.5,"max":9,"p50":4,"p90":9,"p99":9,)J"
        R"J("underflow":1,"overflow":1,"bounds":[1,2,4],"counts":[1,)J"
        R"J(0,1,1]}}})J");
}

TEST(JsonGolden, ServeErrorEnvelopes)
{
    serve::ServiceConfig config;
    config.workers = 1;
    serve::CompileService service(config);
    EXPECT_EQ(service.handle(R"({"id":"r\"1","op":"x\ty"})"),
        R"J({"format":"autobraid-serve","v":1,"id":"r\"1",)J"
        R"J("status":"error","error":"unknown op 'x\ty'"})J");
    EXPECT_EQ(service.handle(R"({"id":2.5e-7,"op":"?"})"),
        R"J({"format":"autobraid-serve","v":1,)J"
        R"J("id":2.4999999999999999e-07,"status":"error",)J"
        R"J("error":"unknown op '?'"})J");
    EXPECT_EQ(service.handle(R"({"id":-12,"spec":"nope:1"})"),
        R"J({"format":"autobraid-serve","v":1,"id":-12,)J"
        R"J("status":"error",)J"
        R"J("error":"unknown benchmark family 'nope'"})J");
}

} // namespace
} // namespace autobraid
