/**
 * @file
 * Independent schedule-certifier tests: hand-built autobraid-schedule
 * v1 documents (one valid, one per seeded-mutation class), the
 * export -> certify round-trip on real compiles under both backends,
 * agreement of the in-memory and text front ends (clean schedules and
 * seeded corruptions alike), the --schedule-out pipeline pass,
 * certificate JSON shape, the AB4xx schedule lints, and the
 * fix-application engine.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "analysis/fixit.hpp"
#include "analysis/schedule_lints.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "sched/schedule_export.hpp"

namespace autobraid {
namespace {

using certify::Certificate;

/**
 * Hand-built schedule on a 2x2 grid (3x3 vertex grid), distance 3:
 * h q0 (3 cycles), cx q0 q1 (8 cycles, path 0-1-2), h q1 (3 cycles).
 * The gates chain on q0/q1, so the critical path is 3+8+3 = 14 — and
 * the schedule below achieves it (gap exactly 1.0).
 */
std::string
handDoc(const std::string &makespan, const std::string &schedule)
{
    return std::string("{\n"
                       "  \"format\": \"autobraid-schedule\",\n"
                       "  \"version\": 1,\n"
                       "  \"circuit\": \"hand\",\n"
                       "  \"policy\": \"full\",\n"
                       "  \"backend\": \"braiding\",\n"
                       "  \"distance\": 3,\n"
                       "  \"grid_rows\": 2,\n"
                       "  \"grid_cols\": 2,\n"
                       "  \"num_qubits\": 2,\n"
                       "  \"channel_hold_cycles\": 0,\n"
                       "  \"used_maslov\": false,\n"
                       "  \"swaps_inserted\": 0,\n"
                       "  \"braids_routed\": 1,\n"
                       "  \"makespan\": ") +
           makespan +
           ",\n"
           "  \"dead_vertices\": [],\n"
           "  \"gates\": [\n"
           "    {\"kind\": \"h\", \"q0\": 0, \"q1\": -1},\n"
           "    {\"kind\": \"cx\", \"q0\": 0, \"q1\": 1},\n"
           "    {\"kind\": \"h\", \"q0\": 1, \"q1\": -1}\n"
           "  ],\n"
           "  \"schedule\": [\n" +
           schedule +
           "\n  ]\n"
           "}\n";
}

const char *const kGoodSchedule =
    "    {\"gate\": 0, \"start\": 0, \"finish\": 3, \"release\": 3, "
    "\"path\": []},\n"
    "    {\"gate\": 1, \"start\": 3, \"finish\": 11, \"release\": 11, "
    "\"path\": [0, 1, 2]},\n"
    "    {\"gate\": 2, \"start\": 11, \"finish\": 14, \"release\": 14, "
    "\"path\": []}";

bool
hasCheck(const Certificate &cert, const std::string &check)
{
    for (const certify::Violation &v : cert.violations)
        if (v.check == check)
            return true;
    return false;
}

std::string
violations(const Certificate &cert)
{
    std::string out;
    for (const certify::Violation &v : cert.violations)
        out += v.toString() + "\n";
    return out;
}

// --------------------------------------------------------------------
// Hand-built documents: the valid baseline and each mutation class
// --------------------------------------------------------------------

TEST(Certify, HandBuiltScheduleCertifies)
{
    const Certificate cert = certify::certifyScheduleText(
        handDoc("14", kGoodSchedule));
    EXPECT_TRUE(cert.ok) << violations(cert);
    EXPECT_EQ(cert.gates, 3u);
    EXPECT_EQ(cert.scheduled, 3u);
    EXPECT_EQ(cert.makespan, 14u);
    EXPECT_EQ(cert.critical_path_bound, 14u);
    EXPECT_EQ(cert.lower_bound, 14u);
    EXPECT_DOUBLE_EQ(cert.optimality_gap, 1.0);
}

TEST(Certify, ForgedMakespanRejected)
{
    const Certificate cert = certify::certifyScheduleText(
        handDoc("9999", kGoodSchedule));
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "makespan")) << violations(cert);
}

TEST(Certify, UnderReportedMakespanRejected)
{
    // Claiming less than the last finish is also a makespan lie, and
    // 10 additionally undercuts the certified lower bound of 14.
    const Certificate cert = certify::certifyScheduleText(
        handDoc("10", kGoodSchedule));
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "makespan")) << violations(cert);
    EXPECT_TRUE(hasCheck(cert, "makespan-bound")) << violations(cert);
}

TEST(Certify, InvertedWindowRejected)
{
    const Certificate cert = certify::certifyScheduleText(handDoc(
        "14",
        "    {\"gate\": 0, \"start\": 3, \"finish\": 0, \"release\": "
        "3, \"path\": []},\n"
        "    {\"gate\": 1, \"start\": 3, \"finish\": 11, \"release\": "
        "11, \"path\": [0, 1, 2]},\n"
        "    {\"gate\": 2, \"start\": 11, \"finish\": 14, "
        "\"release\": 14, \"path\": []}"));
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "window")) << violations(cert);
}

TEST(Certify, WrongDurationRejected)
{
    // h q0 stretched from 3 to 4 cycles: wrong for distance 3.
    const Certificate cert = certify::certifyScheduleText(handDoc(
        "14",
        "    {\"gate\": 0, \"start\": 0, \"finish\": 4, \"release\": "
        "4, \"path\": []},\n"
        "    {\"gate\": 1, \"start\": 4, \"finish\": 12, \"release\": "
        "12, \"path\": [0, 1, 2]},\n"
        "    {\"gate\": 2, \"start\": 11, \"finish\": 14, "
        "\"release\": 14, \"path\": []}"));
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "duration")) << violations(cert);
}

TEST(Certify, DependenceViolationRejected)
{
    // cx starts before its q0 predecessor (the h) finishes.
    const Certificate cert = certify::certifyScheduleText(handDoc(
        "14",
        "    {\"gate\": 0, \"start\": 0, \"finish\": 3, \"release\": "
        "3, \"path\": []},\n"
        "    {\"gate\": 1, \"start\": 1, \"finish\": 9, \"release\": "
        "9, \"path\": [0, 1, 2]},\n"
        "    {\"gate\": 2, \"start\": 11, \"finish\": 14, "
        "\"release\": 14, \"path\": []}"));
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "dependence")) << violations(cert);
}

TEST(Certify, NonContiguousPathRejected)
{
    // Vertex 0 -> 2 skips a channel segment on the 3-wide vertex grid.
    const Certificate cert = certify::certifyScheduleText(handDoc(
        "14",
        "    {\"gate\": 0, \"start\": 0, \"finish\": 3, \"release\": "
        "3, \"path\": []},\n"
        "    {\"gate\": 1, \"start\": 3, \"finish\": 11, \"release\": "
        "11, \"path\": [0, 2]},\n"
        "    {\"gate\": 2, \"start\": 11, \"finish\": 14, "
        "\"release\": 14, \"path\": []}"));
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "path-contiguity"))
        << violations(cert);
}

TEST(Certify, MissingGateRejected)
{
    const Certificate cert = certify::certifyScheduleText(handDoc(
        "11",
        "    {\"gate\": 0, \"start\": 0, \"finish\": 3, \"release\": "
        "3, \"path\": []},\n"
        "    {\"gate\": 1, \"start\": 3, \"finish\": 11, \"release\": "
        "11, \"path\": [0, 1, 2]}"));
    EXPECT_FALSE(cert.ok);
    EXPECT_EQ(cert.scheduled, 2u);
    EXPECT_TRUE(hasCheck(cert, "coverage")) << violations(cert);
}

TEST(Certify, OverlappingBraidsRejected)
{
    // Two independent CX braids share vertex 4 at the same instant —
    // a 4-qubit document so dependence cannot explain the overlap.
    const std::string doc =
        "{\n"
        "  \"format\": \"autobraid-schedule\",\n"
        "  \"version\": 1,\n"
        "  \"circuit\": \"overlap\",\n"
        "  \"policy\": \"full\",\n"
        "  \"backend\": \"braiding\",\n"
        "  \"distance\": 3,\n"
        "  \"grid_rows\": 2,\n"
        "  \"grid_cols\": 2,\n"
        "  \"num_qubits\": 4,\n"
        "  \"channel_hold_cycles\": 0,\n"
        "  \"used_maslov\": false,\n"
        "  \"swaps_inserted\": 0,\n"
        "  \"braids_routed\": 2,\n"
        "  \"makespan\": 8,\n"
        "  \"dead_vertices\": [],\n"
        "  \"gates\": [\n"
        "    {\"kind\": \"cx\", \"q0\": 0, \"q1\": 1},\n"
        "    {\"kind\": \"cx\", \"q0\": 2, \"q1\": 3}\n"
        "  ],\n"
        "  \"schedule\": [\n"
        "    {\"gate\": 0, \"start\": 0, \"finish\": 8, \"release\": "
        "8, \"path\": [3, 4, 5]},\n"
        "    {\"gate\": 1, \"start\": 0, \"finish\": 8, \"release\": "
        "8, \"path\": [1, 4, 7]}\n"
        "  ]\n"
        "}\n";
    const Certificate cert = certify::certifyScheduleText(doc);
    EXPECT_FALSE(cert.ok);
    EXPECT_TRUE(hasCheck(cert, "vertex-overlap")) << violations(cert);
}

TEST(Certify, StructuralProblemsThrowUserError)
{
    EXPECT_THROW(certify::certifyScheduleText("{"), UserError);
    EXPECT_THROW(certify::certifyScheduleText("{\"format\": \"x\"}"),
                 UserError);
    // Right format, missing everything else.
    EXPECT_THROW(certify::certifyScheduleText(
                     "{\"format\": \"autobraid-schedule\", "
                     "\"version\": 1}"),
                 UserError);
}

/** The UserError text of certifying @p doc ("" when none). */
std::string
certifyError(const std::string &doc)
{
    try {
        certify::certifyScheduleText(doc);
    } catch (const UserError &e) {
        return e.what();
    }
    return "";
}

/** The valid hand-built document with each @p edits pair applied. */
std::string
handDocWith(
    const std::vector<std::pair<std::string, std::string>> &edits)
{
    std::string doc = handDoc("14", kGoodSchedule);
    for (const auto &[from, to] : edits)
        doc.replace(doc.find(from), from.size(), to);
    return doc;
}

TEST(Certify, HostileNumbersRejectedBeforeAllocation)
{
    // Each header would otherwise size per-vertex or per-qubit vectors,
    // or overflow a cast, before any rule runs.
    EXPECT_NE(certifyError(handDocWith({{"\"grid_rows\": 2",
                                         "\"grid_rows\": 1000000000"},
                                        {"\"grid_cols\": 2",
                                         "\"grid_cols\": 1000000000"}}))
                  .find("grid_rows x grid_cols"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith({{"\"num_qubits\": 2",
                                         "\"num_qubits\": 2000000000"}}))
                  .find("num_qubits"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith(
                  {{"\"num_qubits\": 2", "\"num_qubits\": 5"}}))
                  .find("4 tiles"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith({{"\"distance\": 3",
                                         "\"distance\": 1e15"}}))
                  .find("\"distance\" is out of range"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith(
                  {{"[0, 1, 2]", "[0, 1, 1e300]"}}))
                  .find("\"path\" is out of range"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith(
                  {{"{\"gate\": 0,", "{\"gate\": -1e19,"}}))
                  .find("\"gate\" is out of range"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith({{"\"makespan\": 14",
                                         "\"makespan\": -14"}}))
                  .find("\"makespan\" is out of range"),
              std::string::npos);
    EXPECT_NE(certifyError(handDocWith(
                  {{"\"num_qubits\": 2", "\"num_qubits\": 2.5"}}))
                  .find("\"num_qubits\" is not an integer"),
              std::string::npos);
    EXPECT_EQ(certifyError(handDocWith({})), "");
}

// --------------------------------------------------------------------
// Real compiles: the text round trip, and the in-memory and text
// front ends giving the same certificate
// --------------------------------------------------------------------

/** A traced compile plus the export facts both front ends need. */
struct Compiled
{
    Circuit circuit;
    CompileOptions opt;
    CompileReport report;
    Grid grid;

    Compiled(const char *spec, CompileOptions options)
        : circuit(gen::make(spec)), opt(std::move(options)),
          report(compileCircuit(circuit, opt)),
          grid(Grid::forQubits(circuit.numQubits()))
    {}

    ScheduleExportInfo
    info() const
    {
        return scheduleExportInfo(circuit, grid, opt, report);
    }

    /** Certificates of @p result from the in-memory and text ends. */
    std::pair<Certificate, Certificate>
    certifyBoth(const ScheduleResult &result) const
    {
        return {certify::certifySchedule(scheduleDocument(info(), result)),
                certify::certifyScheduleText(
                    scheduleToJson(info(), result))};
    }
};

CompileOptions
traced(SchedulerBackend backend)
{
    CompileOptions opt;
    opt.backend = backend;
    opt.record_trace = true;
    return opt;
}

Certificate
roundTrip(const char *spec, SchedulerBackend backend)
{
    const Compiled run(spec, traced(backend));
    EXPECT_TRUE(run.report.result.valid);
    return certify::certifyScheduleText(
        scheduleToJson(run.info(), run.report.result));
}

TEST(Certify, RoundTripBraiding)
{
    const Certificate cert =
        roundTrip("qft:6", SchedulerBackend::Braiding);
    EXPECT_TRUE(cert.ok) << violations(cert);
    EXPECT_EQ(cert.backend, "braiding");
    EXPECT_GT(cert.lower_bound, 0u);
    EXPECT_GE(cert.optimality_gap, 1.0);
}

TEST(Certify, RoundTripSurgery)
{
    const Certificate cert =
        roundTrip("qft:6", SchedulerBackend::LatticeSurgery);
    EXPECT_TRUE(cert.ok) << violations(cert);
    EXPECT_EQ(cert.backend, "surgery");
    EXPECT_GT(cert.lower_bound, 0u);
    EXPECT_GE(cert.optimality_gap, 1.0);
}

TEST(Certify, FrontEndsAgreeOnRealCompiles)
{
    for (const char *spec : {"qft:6", "im:12:2", "qpe:6:3", "grover:4"})
        for (const SchedulerBackend backend :
             {SchedulerBackend::Braiding,
              SchedulerBackend::LatticeSurgery}) {
            const Compiled run(spec, traced(backend));
            const auto [memory, text] =
                run.certifyBoth(run.report.result);
            EXPECT_TRUE(memory.ok) << spec << ": " << violations(memory);
            EXPECT_EQ(memory.toJson(), text.toJson())
                << spec << " under " << backendCliName(backend);
        }
}

/**
 * Corrupt a copy of @p run's schedule with @p mutate and require both
 * front ends to reject it under @p check with identical certificates.
 */
template <typename Mutate>
void
expectRejectedAlike(const Compiled &run, const char *check,
                    Mutate mutate)
{
    ScheduleResult bad = run.report.result;
    mutate(bad);
    const auto [memory, text] = run.certifyBoth(bad);
    EXPECT_FALSE(memory.ok);
    EXPECT_TRUE(hasCheck(memory, check)) << violations(memory);
    EXPECT_EQ(memory.toJson(), text.toJson());
}

TEST(Certify, FrontEndsRejectDuplicatedGateAlike)
{
    const Compiled run("qft:6", traced(SchedulerBackend::Braiding));
    expectRejectedAlike(run, "coverage", [](ScheduleResult &r) {
        r.trace.push_back(r.trace.front());
    });
}

TEST(Certify, FrontEndsRejectInvertedWindowAlike)
{
    const Compiled run("qft:6", traced(SchedulerBackend::Braiding));
    expectRejectedAlike(run, "window", [](ScheduleResult &r) {
        for (TraceEntry &e : r.trace)
            if (e.finish > e.start) {
                std::swap(e.start, e.finish);
                return;
            }
    });
}

TEST(Certify, FrontEndsRejectVertexCollisionAlike)
{
    CompileOptions opt = traced(SchedulerBackend::Braiding);
    opt.policy = SchedulerPolicy::AutobraidSP;
    const Compiled run("qft:6", opt);
    expectRejectedAlike(run, "vertex-overlap", [](ScheduleResult &r) {
        // Alias the first pair of temporally overlapping holds.
        for (size_t i = 0; i < r.trace.size(); ++i)
            for (size_t j = i + 1; j < r.trace.size(); ++j) {
                TraceEntry &a = r.trace[i];
                TraceEntry &b = r.trace[j];
                if (!a.path.empty() && !b.path.empty() &&
                    a.start < b.finish && b.start < a.finish) {
                    b.path = a.path;
                    return;
                }
            }
        FAIL() << "need two overlapping holds";
    });
}

TEST(Certify, FrontEndsRejectSwapWithoutQubitPairAlike)
{
    CompileOptions opt = traced(SchedulerBackend::Braiding);
    opt.policy = SchedulerPolicy::AutobraidFull;
    opt.best_of_p0 = false;
    opt.p_threshold = 0.9; // trigger the layout optimizer aggressively
    const Compiled run("qft:16", opt);
    ASSERT_GT(run.report.result.swaps_inserted, 0u);
    expectRejectedAlike(run, "swap-pair", [](ScheduleResult &r) {
        for (TraceEntry &e : r.trace)
            if (e.gate == kNoGate) {
                e.swap_a = kNoQubit;
                e.swap_b = kNoQubit;
                return;
            }
    });
}

TEST(Certify, ScheduleOutPassWritesCertifiableDocument)
{
    const std::string path =
        ::testing::TempDir() + "ab_certify_schedule_out.json";
    const Circuit circuit = gen::make("im:6:2");
    CompileOptions opt;
    opt.schedule_out = path;
    // record_trace deliberately left off: the pipeline must force it.
    const CompileReport report = compileCircuit(circuit, opt);
    EXPECT_TRUE(report.result.valid);
    const Certificate cert =
        certify::certifyScheduleText(readTextFile(path));
    EXPECT_TRUE(cert.ok) << violations(cert);
    EXPECT_EQ(cert.gates, circuit.size());
    EXPECT_EQ(cert.makespan, report.result.makespan);
}

TEST(Certify, CertificateJsonParses)
{
    const Certificate cert = certify::certifyScheduleText(
        handDoc("14", kGoodSchedule));
    const json::Value doc = json::parse(cert.toJson());
    EXPECT_EQ(doc.stringOr("format", ""), "autobraid-certificate");
    ASSERT_NE(doc.find("ok"), nullptr);
    EXPECT_TRUE(doc.find("ok")->asBool());
    ASSERT_NE(doc.find("optimality_gap"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("optimality_gap")->asNumber(), 1.0);
    ASSERT_NE(doc.find("violations"), nullptr);
    EXPECT_TRUE(doc.find("violations")->asArray().empty());
}

// --------------------------------------------------------------------
// AB4xx schedule lints
// --------------------------------------------------------------------

lint::DiagnosticEngine
runScheduleLints(const lint::ScheduleLintInput &input)
{
    lint::DiagnosticEngine engine(
        lint::LintOptions{lint::LintLevel::All, {}, false});
    lint::lintSchedule(input, engine);
    return engine;
}

size_t
codeCount(const lint::DiagnosticEngine &engine, const char *code)
{
    size_t n = 0;
    for (const lint::Diagnostic &d : engine.diagnostics())
        if (d.code == code)
            ++n;
    return n;
}

TEST(ScheduleLints, AB401FiresOnLargeGap)
{
    lint::ScheduleLintInput input;
    input.makespan = 100;
    input.critical_path = 10;
    const auto engine = runScheduleLints(input);
    EXPECT_EQ(codeCount(engine, "AB401"), 1u);
    const auto &metrics = engine.metrics();
    ASSERT_NE(metrics.find("schedule_lower_bound_cycles"),
              metrics.end());
    EXPECT_EQ(metrics.at("schedule_lower_bound_cycles"), 10);
}

TEST(ScheduleLints, AB401QuietWithinThreshold)
{
    lint::ScheduleLintInput input;
    input.makespan = 19;
    input.critical_path = 10;
    EXPECT_EQ(codeCount(runScheduleLints(input), "AB401"), 0u);
}

TEST(ScheduleLints, AB401PrefersTighterChannelBound)
{
    // channel bound 60 > critical path 10: gap 100/60 < 2, so the
    // tighter bound silences the advisory the loose one would raise.
    lint::ScheduleLintInput input;
    input.makespan = 100;
    input.critical_path = 10;
    input.channel_bound = 60;
    EXPECT_EQ(codeCount(runScheduleLints(input), "AB401"), 0u);
}

TEST(ScheduleLints, AB402FiresOnHotspot)
{
    lint::ScheduleLintInput input;
    input.makespan = 100;
    input.critical_path = 90;
    input.vertex_busy_cycles = {60, 5, 5, 5};
    const auto engine = runScheduleLints(input);
    EXPECT_EQ(codeCount(engine, "AB402"), 1u);
}

TEST(ScheduleLints, AB402QuietWhenBalanced)
{
    lint::ScheduleLintInput input;
    input.makespan = 100;
    input.critical_path = 90;
    input.vertex_busy_cycles = {20, 20, 20, 20};
    EXPECT_EQ(codeCount(runScheduleLints(input), "AB402"), 0u);
}

TEST(ScheduleLints, AB403FiresOnIdleWindow)
{
    lint::ScheduleLintInput input;
    input.makespan = 100;
    input.critical_path = 90;
    input.windows = {{0, 10}, {90, 100}};
    const auto engine = runScheduleLints(input);
    EXPECT_EQ(codeCount(engine, "AB403"), 1u);
    const auto &metrics = engine.metrics();
    ASSERT_NE(metrics.find("schedule_idle_cycles"), metrics.end());
    EXPECT_EQ(metrics.at("schedule_idle_cycles"), 80);
}

TEST(ScheduleLints, AB403QuietWhenDense)
{
    lint::ScheduleLintInput input;
    input.makespan = 100;
    input.critical_path = 90;
    input.windows = {{0, 50}, {45, 100}};
    EXPECT_EQ(codeCount(runScheduleLints(input), "AB403"), 0u);
}

TEST(ScheduleLints, EmptyScheduleIsSilent)
{
    const auto engine = runScheduleLints(lint::ScheduleLintInput{});
    EXPECT_TRUE(engine.diagnostics().empty());
}

// --------------------------------------------------------------------
// Fix application engine
// --------------------------------------------------------------------

TEST(Fixit, DeleteAndReplaceLines)
{
    const std::string text = "one\ntwo\nthree\n";
    const std::vector<lint::FixReplacement> fixes = {
        {"f.qasm", 2, ""},          // delete "two"
        {"f.qasm", 3, "THREE"},     // rewrite "three"
    };
    const lint::FixResult result = lint::applyFixes(text, fixes);
    EXPECT_TRUE(result.changed);
    EXPECT_EQ(result.applied, 2u);
    EXPECT_EQ(result.skipped, 0u);
    EXPECT_EQ(result.text, "one\nTHREE\n");
}

TEST(Fixit, IdenticalDuplicatesCollapse)
{
    const std::vector<lint::FixReplacement> fixes = {
        {"f.qasm", 1, ""},
        {"f.qasm", 1, ""},
    };
    const lint::FixResult result =
        lint::applyFixes("gone\nkept\n", fixes);
    EXPECT_EQ(result.applied, 1u);
    EXPECT_EQ(result.skipped, 0u);
    EXPECT_EQ(result.text, "kept\n");
}

TEST(Fixit, ConflictingEditsSkipTheLine)
{
    const std::vector<lint::FixReplacement> fixes = {
        {"f.qasm", 1, "a"},
        {"f.qasm", 1, "b"},
    };
    const lint::FixResult result =
        lint::applyFixes("orig\nkept\n", fixes);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(result.applied, 0u);
    EXPECT_EQ(result.skipped, 2u);
    EXPECT_EQ(result.text, "orig\nkept\n");
}

TEST(Fixit, OutOfRangeLinesSkipped)
{
    const std::vector<lint::FixReplacement> fixes = {
        {"f.qasm", 99, ""},
    };
    const lint::FixResult result = lint::applyFixes("one\n", fixes);
    EXPECT_FALSE(result.changed);
    EXPECT_EQ(result.skipped, 1u);
    EXPECT_EQ(result.text, "one\n");
}

TEST(Fixit, ApplyIsIdempotent)
{
    const std::string text = "one\ntwo\nthree\n";
    const std::vector<lint::FixReplacement> fixes = {
        {"f.qasm", 2, ""},
    };
    const lint::FixResult once = lint::applyFixes(text, fixes);
    EXPECT_EQ(once.text, "one\nthree\n");
    // Re-applying to the already-fixed text rewrites line 2 again —
    // the caller (autobraid_lint --fix) re-lints before re-applying,
    // so idempotence is at the diagnostics level: a fixed file
    // produces no fixes. Applying an *empty* fix list must be a
    // byte-identical no-op.
    const lint::FixResult noop = lint::applyFixes(once.text, {});
    EXPECT_FALSE(noop.changed);
    EXPECT_EQ(noop.text, once.text);
}

TEST(Fixit, CollectFiltersByFile)
{
    std::vector<lint::Diagnostic> diags(2);
    diags[0].code = "AB104";
    diags[0].fixes = {{"a.qasm", 3, ""}};
    diags[1].code = "AB104";
    diags[1].fixes = {{"b.qasm", 7, ""}};
    const auto fixes = lint::collectFixesForFile(diags, "a.qasm");
    ASSERT_EQ(fixes.size(), 1u);
    EXPECT_EQ(fixes[0].line, 3);
}

} // namespace
} // namespace autobraid
