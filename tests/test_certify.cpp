/**
 * @file
 * Independent schedule-certifier tests: hand-built autobraid-schedule
 * v1 documents (one valid, one per seeded-mutation class), the
 * export -> certify round-trip on real compiles under both backends,
 * agreement of the in-memory and text front ends (clean schedules and
 * seeded corruptions alike), braids cut or stretched off their operand
 * tiles, the --schedule-out pipeline pass,
 * certificate JSON shape, the AB4xx schedule lints, and the
 * fix-application engine, and the streaming decoders against the tree
 * decoders they replaced (json_reference.hpp) on every truncation and
 * single-byte edit of a small corpus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/certify.hpp"
#include "analysis/fixit.hpp"
#include "analysis/schedule_lints.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "json_reference.hpp"
#include "lattice/defects.hpp"
#include "sched/schedule_export.hpp"
#include "telemetry/recorder.hpp"

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

TEST(Certify, DurationTableAgreesWithCostModel)
{
    // The certifier keeps its own table so that a scheduler-side
    // cost-model regression fails certification; this pins the two
    // together for every gate kind, backend and distance bound.
    for (int k = 0; k <= static_cast<int>(GateKind::Barrier); ++k)
        for (SchedulerBackend backend : {SchedulerBackend::Braiding,
                                         SchedulerBackend::LatticeSurgery})
            for (int d : {1, 5, 33, 9999}) {
                Gate gate;
                gate.kind = static_cast<GateKind>(k);
                CostModel cost;
                cost.distance = d;
                EXPECT_EQ(certify::expectedDuration(gate.kind, backend, d),
                          backendGateDuration(cost, backend, gate))
                    << gateName(gate.kind) << " "
                    << backendName(backend) << " d=" << d;
            }
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

/** @p doc with each @p edits pair's first occurrence replaced. */
std::string
edited(std::string doc,
       const std::vector<std::pair<std::string, std::string>> &edits)
{
    for (const auto &[from, to] : edits)
        doc.replace(doc.find(from), from.size(), to);
    return doc;
}

/** The valid hand-built document with each @p edits pair applied. */
std::string
handDocWith(
    const std::vector<std::pair<std::string, std::string>> &edits)
{
    return edited(handDoc("14", kGoodSchedule), edits);
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

/**
 * The --schedule-out export of @p spec, which embeds the placement,
 * on a lattice with @p defects dead vertices drawn as autobraid_cli's
 * --defects draws them.
 */
certify::Schedule
exportedSchedule(const char *spec, SchedulerBackend backend,
                 int defects = 0)
{
    const Circuit circuit = gen::make(spec);
    CompileOptions opt;
    opt.backend = backend;
    Rng rng(opt.seed ^ 0xdefecu);
    opt.dead_vertices =
        DefectMap::random(Grid::forQubits(circuit.numQubits()), defects,
                          rng)
            .deadVertices();
    // One file per test: ctest runs the tests that call this at once.
    opt.schedule_out =
        ::testing::TempDir() + "ab_certify_anchor_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json";
    compileCircuit(circuit, opt);
    return certify::decodeSchedule(readTextFile(opt.schedule_out));
}

/** True when @p cert fails on @p check and on nothing else. */
bool
onlyCheck(const Certificate &cert, const std::string &check)
{
    if (cert.violations.empty())
        return false;
    for (const certify::Violation &v : cert.violations)
        if (v.check != check)
            return false;
    return true;
}

TEST(Certify, UnanchoredBraidsRejected)
{
    const certify::Schedule braids =
        exportedSchedule("qft:6", SchedulerBackend::Braiding);
    ASSERT_TRUE(braids.placement.has_value());
    ASSERT_TRUE(certify::certifySchedule(braids).ok);
    const Grid grid(braids.grid_rows, braids.grid_cols);
    auto tile = [&](const certify::Schedule &s, Qubit q) {
        return grid.cornerIds(
            grid.cell((*s.placement)[static_cast<size_t>(q)]));
    };
    auto on = [](const std::array<VertexId, 4> &t, VertexId v) {
        return std::find(t.begin(), t.end(), v) != t.end();
    };

    // A path cut to a vertex on neither tile: cx q2, q1 runs [9, 8, 4]
    // between tiles {9, 10, 13, 14} and {0, 1, 4, 5}.
    certify::Schedule cut = braids;
    const auto it = std::find_if(
        cut.entries.begin(), cut.entries.end(),
        [](const certify::Entry &e) {
            return e.path == std::vector<VertexId>{9, 8, 4};
        });
    ASSERT_NE(it, cut.entries.end());
    it->path = {8};
    const Certificate cut_cert = certify::certifySchedule(cut);
    EXPECT_TRUE(onlyCheck(cut_cert, "anchor")) << violations(cut_cert);

    // An endpoint extended one hop off its tile, onto a vertex that is
    // a corner of neither tile and free at the time.
    bool extended = false;
    for (size_t i = 0; i < braids.entries.size() && !extended; ++i) {
        const certify::Entry &e = braids.entries[i];
        if (e.gate < 0 || e.path.empty())
            continue;
        const Gate &gate = braids.gates[static_cast<size_t>(e.gate)];
        std::array<VertexId, 4> hops;
        const int n = grid.neighbors(e.path.back(), hops);
        for (int k = 0; k < n && !extended; ++k) {
            const VertexId w = hops[static_cast<size_t>(k)];
            if (on(tile(braids, gate.q0), w) ||
                on(tile(braids, gate.q1), w) ||
                std::find(e.path.begin(), e.path.end(), w) !=
                    e.path.end())
                continue;
            certify::Schedule longer = braids;
            longer.entries[i].path.push_back(w);
            extended =
                onlyCheck(certify::certifySchedule(longer), "anchor");
        }
    }
    EXPECT_TRUE(extended);

    // A merge region missing one live corner of its tiles.
    const certify::Schedule merges =
        exportedSchedule("qft:6", SchedulerBackend::LatticeSurgery);
    ASSERT_TRUE(merges.placement.has_value());
    ASSERT_TRUE(certify::certifySchedule(merges).ok);
    certify::Schedule short_region = merges;
    const auto region = std::find_if(
        short_region.entries.begin(), short_region.entries.end(),
        [](const certify::Entry &e) { return !e.path.empty(); });
    ASSERT_NE(region, short_region.entries.end());
    const Gate &gate = merges.gates[static_cast<size_t>(region->gate)];
    const VertexId corner = tile(merges, gate.q1)[0];
    ASSERT_TRUE(merges.dead_vertices.empty());
    const auto pos =
        std::find(region->path.begin(), region->path.end(), corner);
    ASSERT_NE(pos, region->path.end());
    region->path.erase(pos);
    const Certificate region_cert =
        certify::certifySchedule(short_region);
    EXPECT_TRUE(onlyCheck(region_cert, "anchor")) << violations(region_cert);
}

TEST(Certify, PathsThroughDeadVerticesRejected)
{
    // autobraid_cli --backend=surgery --defects=4 im:36:3, with one
    // vertex of a merge region declared dead after the fact.
    certify::Schedule s = exportedSchedule(
        "im:36:3", SchedulerBackend::LatticeSurgery, 4);
    ASSERT_EQ(s.dead_vertices.size(), 4u);
    ASSERT_TRUE(certify::certifySchedule(s).ok);
    const auto region =
        std::find_if(s.entries.begin(), s.entries.end(),
                     [](const certify::Entry &e) { return !e.path.empty(); });
    ASSERT_NE(region, s.entries.end());
    s.dead_vertices.push_back(region->path.back());
    const Certificate cert = certify::certifySchedule(s);
    EXPECT_TRUE(onlyCheck(cert, "dead-vertex")) << violations(cert);
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
// The streaming decoders against the tree decoders they replaced
// --------------------------------------------------------------------

/** @p decode's output, or "UserError: " and its text. */
template <typename Decode>
std::string
outcome(Decode decode)
{
    try {
        return decode();
    } catch (const UserError &e) {
        return std::string("UserError: ") + e.what();
    }
}

/** @p v in one canonical compact form, numbers to 17 digits. */
void
dump(const json::Value &v, json::Writer &w)
{
    switch (v.kind()) {
    case json::Value::Kind::Null:
        w.null();
        break;
    case json::Value::Kind::Bool:
        w.value(v.asBool());
        break;
    case json::Value::Kind::Number:
        w.significant(v.asNumber(), 17);
        break;
    case json::Value::Kind::String:
        w.value(v.asString());
        break;
    case json::Value::Kind::Array:
        w.beginArray();
        for (const json::Value &item : v.asArray())
            dump(item, w);
        w.end();
        break;
    case json::Value::Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : v.asObject()) {
            w.key(key);
            dump(member, w);
        }
        w.end();
        break;
    }
}

std::string
dumped(const json::Value &v)
{
    std::string out;
    json::Writer w(out);
    dump(v, w);
    return out;
}

/** Where the library and the reference first disagree, if anywhere. */
struct Differences
{
    size_t cases = 0;
    size_t count = 0;
    std::string first;

    void
    compare(const char *what, const std::string &doc,
            const std::string &library, const std::string &reference)
    {
        ++cases;
        if (library == reference)
            return;
        if (count++ == 0)
            first = std::string(what) + " differs on:\n" + doc +
                    "\nlibrary:   " + library +
                    "\nreference: " + reference;
    }
};

/**
 * Run @p check on @p doc and on every truncation, every single-byte
 * deletion and every substitution from @p bytes of it.
 */
template <typename Check>
void
forEachEdit(const std::string &doc, std::string_view bytes, Check check)
{
    check(doc);
    for (size_t n = 0; n < doc.size(); ++n)
        check(doc.substr(0, n));
    for (size_t i = 0; i < doc.size(); ++i) {
        std::string edited = doc;
        edited.erase(i, 1);
        check(edited);
        for (char b : bytes) {
            if (b == doc[i])
                continue;
            edited = doc;
            edited[i] = b;
            check(edited);
        }
    }
}

TEST(TreeReference, ParseAgreesOnEveryEdit)
{
    const std::string docs[] = {
        handDoc("14", kGoodSchedule),
        R"({"s": ["a\u00e9\ud83d\ude00\n\/", ""], "n": [-0, 1e-400, )"
        R"(15E-1, 01, +1, -2.5e+3], "t": true, "f": false, "z": null})"};
    Differences diff;
    const auto compare = [&diff](const std::string &text) {
        diff.compare("json::parse", text,
                     outcome([&] { return dumped(json::parse(text)); }),
                     outcome([&] { return dumped(reference::parse(text)); }));
    };
    for (const std::string &doc : docs)
        forEachEdit(doc, "\"\\,:[]{}0-.e +ux\n", compare);
    EXPECT_EQ(diff.count, 0u) << diff.first;
}

/** Compare @p decode with @p reference_decode of the reference tree. */
template <typename Decode, typename ReferenceDecode>
void
compareDecoders(Differences &diff, const std::string &doc, Decode decode,
                ReferenceDecode reference_decode)
{
    diff.compare("decoder", doc, outcome([&] { return decode(doc); }),
                 outcome([&] {
                     return reference_decode(reference::parse(doc));
                 }));
}

std::string
certified(const std::string &doc)
{
    return certify::certifySchedule(certify::decodeSchedule(doc)).toJson();
}

std::string
referenceCertified(const json::Value &tree)
{
    return certify::certifySchedule(reference::decodeSchedule(tree))
        .toJson();
}

std::string
recordingJson(const std::string &doc)
{
    return telemetry::decodeRecording(doc).toJson();
}

std::string
referenceRecordingJson(const json::Value &tree)
{
    return reference::decodeRecording(tree).toJson();
}

/** A traced compile whose exports embed an identity placement. */
struct SmallExport : Compiled
{
    Placement placement;

    SmallExport(const char *spec, CompileOptions options)
        : Compiled(spec, std::move(options)),
          placement(grid, circuit.numQubits())
    {}

    std::string
    json(const ScheduleResult &result) const
    {
        ScheduleExportInfo with_placement = info();
        with_placement.placement = &placement;
        return scheduleToJson(with_placement, result);
    }
};

/** A CX on a 2x2 vertex grid that waits two cycles for a channel. */
std::string
smallRecording()
{
    constexpr auto kCongestion =
        static_cast<size_t>(telemetry::StallCause::Congestion);
    telemetry::FlightRecording rec;
    rec.grid_rows = 2;
    rec.grid_cols = 2;
    rec.makespan = 5;
    rec.gates.resize(2);
    // Assigned from std::string temporaries: in Release, gcc 12 reports
    // a false -Wrestrict overlap on assigning these literals directly.
    telemetry::GateRecord &h = rec.gates[0];
    h.kind = std::string("h");
    h.q0 = 0;
    h.ready = h.dispatched = h.retired = 1;
    telemetry::GateRecord &cx = rec.gates[1];
    cx.kind = std::string("cx");
    cx.q0 = 0;
    cx.q1 = 3;
    cx.ready = 1;
    cx.dispatched = 3;
    cx.retired = 5;
    cx.stall[kCongestion] = 2;
    cx.blocked_attempts = 1;
    rec.stall_totals[kCongestion] = 2;
    rec.blocked.push_back(
        telemetry::BlockedEvent{1, 1, telemetry::StallCause::Congestion});
    rec.vertex_busy_cycles = {0, 2, 2, 0};
    return rec.toJson();
}

TEST(TreeReference, DecodersAgreeOnEveryEdit)
{
    const SmallExport braiding("ghz:2", traced(SchedulerBackend::Braiding));
    const SmallExport surgery("ghz:2",
                              traced(SchedulerBackend::LatticeSurgery));
    // The braiding run again, with a SWAP inserted after its CX.
    ScheduleResult swapped = braiding.report.result;
    TraceEntry swap = swapped.trace.back();
    swap.gate = kNoGate;
    swap.swap_a = 0;
    swap.swap_b = 1;
    swapped.trace.push_back(swap);
    swapped.swaps_inserted = 1;
    const std::string schedules[] = {
        handDoc("14", kGoodSchedule), braiding.json(braiding.report.result),
        surgery.json(surgery.report.result), braiding.json(swapped)};

    Differences diff;
    constexpr std::string_view kBytes = ",]}09-.e";
    for (const std::string &doc : schedules)
        forEachEdit(doc, kBytes, [&](const std::string &text) {
            compareDecoders(diff, text, certified, referenceCertified);
        });
    forEachEdit(smallRecording(), kBytes, [&](const std::string &text) {
        compareDecoders(diff, text, recordingJson, referenceRecordingJson);
    });
    EXPECT_EQ(diff.count, 0u) << diff.first;
}

TEST(TreeReference, DecodersPickTheSameFault)
{
    // With several faults in one document, a syntax error anywhere
    // wins, decode errors come out in check order, not document order,
    // and a repeated member counts only as its last occurrence.
    const std::string hand = handDoc("14", kGoodSchedule);
    const std::string recording = smallRecording();
    Differences diff;
    for (const std::string &doc :
         {edited(hand, {{"\"dead_vertices\": []", "\"dead_vertices\": 1"},
                        {"\n}", ", \"version\": 2\n}"}}),
          edited(hand, {{"\"version\": 1", "\"version\": 2"},
                        {"[0, 1, 2]", "[0, 1 2]"}}),
          edited(hand, {{"\"version\": 1", "\"version\": 2"}}) + "x",
          edited(hand, {{"{\n", "{\"makespan\": \"x\", \"gates\": 1,\n"}}),
          edited(hand, {{"\"q1\": 1}", "\"q1\": 1, \"q0\": -1e300, "
                                        "\"kind\": 4}"},
                        {"\"path\": []", "\"path\": [], \"gate\": 2"}}),
          "[" + hand + "]"})
        compareDecoders(diff, doc, certified, referenceCertified);
    for (const std::string &doc :
         {edited(recording, {{"\n}", ", \"grid_rows\": 1\n}"}}),
          edited(recording, {{"[0, 2, 2, 0]", "[0, 2, -2, 0, 5]"}}),
          edited(recording, {{"\"q1\": 3", "\"q1\": 7"},
                             {"\"blocked_attempts\": 1",
                              "\"blocked_attempts\": -1"}}),
          edited(recording, {{"\"kind\": \"cx\"", "\"kinds\": \"cx\""},
                             {"\"q0\": 0, \"q1\": 3", "\"q0\": 9, \"q1\": 3"}}),
          edited(recording, {{"\"gate\": 1, \"kind\"",
                              "\"q1\": 9, \"gate\": 1, \"kind\""}}),
          edited(recording, {{"\"version\": 1", "\"version\": 1, "
                                                "\"format\": 0"}}),
          edited(recording, {{"[0, 2, 2, 0]", "[0, 2]"},
                             {"\n}", ", \"grid_rows\": 1\n}"}}),
          edited(recording, {{"\"version\": 1", "\"version\": 7"},
                             {"[0, 2, 2, 0]", "[0, 2, 2, 0"}})})
        compareDecoders(diff, doc, recordingJson, referenceRecordingJson);
    EXPECT_EQ(diff.count, 0u) << diff.first;
    EXPECT_EQ(diff.cases, 14u);
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
