/**
 * @file
 * Static-analysis subsystem tests: the diagnostic engine (levels,
 * suppression, werror, text/SARIF rendering), every AB diagnostic
 * code with a positive and a clean-input negative case, the peephole
 * shared with the generators, the lint-stage driver integration, the
 * channel-capacity bound against achieved makespans, the fuzz-harness
 * lint oracle on a pinned seed block, and catalog/docs parity.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/fixit.hpp"
#include "analysis/lint.hpp"
#include "circuit/peephole.hpp"
#include "common/error.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "json_checker.hpp"
#include "place/initial.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/parser.hpp"
#include "testing/harness.hpp"

namespace autobraid {
namespace {

using lint::DiagnosticEngine;
using lint::LintLevel;
using lint::LintOptions;
using lint::Severity;
using lint::SourceLoc;

constexpr const char *kQasmHeader =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

/** Number of surviving diagnostics with @p code. */
size_t
codeCount(const DiagnosticEngine &engine, const char *code)
{
    size_t n = 0;
    for (const lint::Diagnostic &d : engine.diagnostics())
        if (d.code == code)
            ++n;
    return n;
}

/** First surviving diagnostic with @p code (null when absent). */
const lint::Diagnostic *
firstCode(const DiagnosticEngine &engine, const char *code)
{
    for (const lint::Diagnostic &d : engine.diagnostics())
        if (d.code == code)
            return &d;
    return nullptr;
}

/** Lint QASM source through the AST analyses. */
DiagnosticEngine
lintSource(const std::string &body, LintOptions options = {})
{
    DiagnosticEngine engine(std::move(options));
    const qasm::Program program =
        qasm::parse(std::string(kQasmHeader) + body);
    lint::runProgramAnalyses(program, engine, "test.qasm");
    return engine;
}

// --------------------------------------------------------------------
// Catalog and engine mechanics
// --------------------------------------------------------------------

TEST(Catalog, EveryFamilyRegistered)
{
    const auto &catalog = lint::diagnosticCatalog();
    EXPECT_GE(catalog.size(), 13u);
    for (const char *code :
         {"AB101", "AB102", "AB103", "AB104", "AB105", "AB106",
          "AB107", "AB201", "AB202", "AB203", "AB204", "AB301",
          "AB302"}) {
        const lint::DiagInfo *info = lint::findDiagInfo(code);
        ASSERT_NE(info, nullptr) << code;
        EXPECT_STREQ(info->code, code);
        EXPECT_GT(std::strlen(info->summary), 10u) << code;
    }
    EXPECT_EQ(lint::findDiagInfo("AB999"), nullptr);
}

TEST(Catalog, UnregisteredCodeIsInternalError)
{
    DiagnosticEngine engine;
    EXPECT_THROW(engine.report("AB999", SourceLoc{}, "nope"),
                 InternalError);
}

TEST(Engine, LevelFiltering)
{
    auto fill = [](LintLevel level) {
        DiagnosticEngine e(LintOptions{level, {}, false});
        e.report("AB101", SourceLoc{}, "err");
        e.report("AB102", SourceLoc{}, "warn");
        e.report("AB103", SourceLoc{}, "note");
        return e;
    };
    const DiagnosticEngine all = fill(LintLevel::All);
    EXPECT_EQ(all.diagnostics().size(), 3u);
    const DiagnosticEngine warnings = fill(LintLevel::Warnings);
    EXPECT_EQ(warnings.diagnostics().size(), 2u);
    EXPECT_EQ(warnings.count(Severity::Note), 0u);
    const DiagnosticEngine errors = fill(LintLevel::Errors);
    EXPECT_EQ(errors.diagnostics().size(), 1u);
    EXPECT_TRUE(errors.hasErrors());
    const DiagnosticEngine off = fill(LintLevel::Off);
    EXPECT_TRUE(off.diagnostics().empty());
    EXPECT_EQ(off.toText(), "");
}

TEST(Engine, SuppressionExactAndFamily)
{
    DiagnosticEngine e(
        LintOptions{LintLevel::All, {"AB102", "AB2xx"}, false});
    e.report("AB102", SourceLoc{}, "suppressed exact");
    e.report("AB201", SourceLoc{}, "suppressed family");
    e.report("AB202", SourceLoc{}, "suppressed family");
    e.report("AB103", SourceLoc{}, "kept");
    EXPECT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.suppressedCount(), 3u);
    EXPECT_EQ(e.diagnostics()[0].code, "AB103");
    EXPECT_NE(e.toText().find("3 suppressed"), std::string::npos);
}

TEST(Engine, WerrorPromotesWarnings)
{
    DiagnosticEngine e(LintOptions{LintLevel::All, {}, true});
    e.report("AB102", SourceLoc{}, "promoted");
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].severity, Severity::Error);
    EXPECT_TRUE(e.hasErrors());

    // Notes are not promoted.
    e.report("AB103", SourceLoc{}, "still a note");
    EXPECT_EQ(e.count(Severity::Note), 1u);

    // Promotion happens before level filtering: Errors level keeps
    // the promoted warning.
    DiagnosticEngine strict(LintOptions{LintLevel::Errors, {}, true});
    strict.report("AB106", SourceLoc{}, "kept");
    EXPECT_EQ(strict.diagnostics().size(), 1u);
}

TEST(Engine, TextRendering)
{
    DiagnosticEngine e;
    SourceLoc loc;
    loc.file = "foo.qasm";
    loc.line = 7;
    e.report("AB101", loc, "two operands alias");
    const std::string text = e.toText();
    EXPECT_NE(text.find("foo.qasm:7: error: two operands alias "
                        "[AB101]"),
              std::string::npos);
    EXPECT_NE(text.find("1 error(s), 0 warning(s), 0 note(s)"),
              std::string::npos);
}

// --------------------------------------------------------------------
// SARIF rendering
// --------------------------------------------------------------------

TEST(Sarif, EmptyRunIsWellformed)
{
    const std::string sarif = DiagnosticEngine().toSarif();
    EXPECT_TRUE(JsonChecker(sarif).valid());
    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"autobraid-lint\""), std::string::npos);
    // The full rule catalog ships even with zero results.
    for (const lint::DiagInfo &info : lint::diagnosticCatalog())
        EXPECT_NE(sarif.find(info.code), std::string::npos)
            << info.code;
    EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
}

TEST(Sarif, ResultsCarryLocationsAndEscape)
{
    DiagnosticEngine e;
    SourceLoc loc;
    loc.file = "dir/we\"ird\\name.qasm";
    loc.line = 12;
    loc.column = 3;
    e.report("AB105", loc, "widths\ndiffer \"badly\"");
    e.report("AB103", SourceLoc{}, "no location");
    const std::string sarif = e.toSarif();
    EXPECT_TRUE(JsonChecker(sarif).valid());
    EXPECT_NE(sarif.find("\"startLine\":12"), std::string::npos);
    EXPECT_NE(sarif.find("\"startColumn\":3"), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\":\"AB105\""), std::string::npos);
    // The location-free result has no locations array member.
    const size_t ab103 = sarif.find("\"ruleId\":\"AB103\"");
    ASSERT_NE(ab103, std::string::npos);
    EXPECT_EQ(sarif.find("\"locations\"", ab103), std::string::npos);
}

// --------------------------------------------------------------------
// Circuit-level lints: AB103, AB106, AB107
// --------------------------------------------------------------------

TEST(CircuitLints, UnusedQubitsAB103)
{
    Circuit c(4, "partial");
    c.cx(0, 1);
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    ASSERT_EQ(codeCount(e, "AB103"), 1u);
    const std::string &msg = firstCode(e, "AB103")->message;
    EXPECT_NE(msg.find("q2"), std::string::npos);
    EXPECT_NE(msg.find("q3"), std::string::npos);

    Circuit full(2, "full");
    full.cx(0, 1);
    DiagnosticEngine clean;
    lint::lintCircuit(full, clean);
    EXPECT_EQ(codeCount(clean, "AB103"), 0u);
}

TEST(CircuitLints, AdjacentInversePairsAB106)
{
    Circuit c(3, "dead-work");
    c.h(0);
    c.h(0); // cancels
    c.s(1);
    c.sdg(1); // cancels
    c.cx(0, 1);
    c.cx(0, 1); // cancels
    c.cx(1, 2);
    c.cx(2, 1); // orientation flipped: does NOT cancel
    c.t(2);
    c.x(0);
    c.t(2); // T then T is a phase, not identity: no report
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    EXPECT_EQ(codeCount(e, "AB106"), 3u);
}

TEST(CircuitLints, InterveningGateBlocksAB106)
{
    Circuit c(2, "blocked");
    c.h(0);
    c.x(0); // touches q0 between the H pair
    c.h(0);
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    EXPECT_EQ(codeCount(e, "AB106"), 0u);
}

TEST(CircuitLints, TripleRunReportsOnePair)
{
    Circuit c(1, "triple");
    c.x(0);
    c.x(0);
    c.x(0);
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    EXPECT_EQ(codeCount(e, "AB106"), 1u);
}

TEST(CircuitLints, ProvenanceLabelsAB106)
{
    const std::string src = std::string(kQasmHeader) +
                            "qreg q[2];\n"
                            "h q[0];\n"
                            "h q[0];\n"
                            "cx q[0], q[1];\n";
    const qasm::ElaboratedCircuit ec =
        qasm::elaborateWithLines(qasm::parse(src), "prov");
    lint::GateProvenance prov;
    prov.file = "prov.qasm";
    prov.lines = ec.gate_lines;
    DiagnosticEngine e;
    lint::lintCircuit(ec.circuit, e, &prov);
    const lint::Diagnostic *d = firstCode(e, "AB106");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->loc.file, "prov.qasm");
    EXPECT_EQ(d->loc.line, 5); // the second `h q[0];`
}

TEST(CircuitLints, MagicHotspotAB107)
{
    Circuit hot(3, "hot");
    for (int i = 0; i < 20; ++i)
        hot.t(0);
    for (int i = 0; i < 4; ++i)
        hot.t(1);
    hot.cx(1, 2);
    DiagnosticEngine e;
    lint::lintCircuit(hot, e);
    ASSERT_EQ(codeCount(e, "AB107"), 1u);
    EXPECT_NE(firstCode(e, "AB107")->message.find("q0"),
              std::string::npos);

    // Balanced T traffic: no hotspot.
    Circuit spread(4, "spread");
    for (int i = 0; i < 24; ++i)
        spread.t(static_cast<Qubit>(i % 4));
    DiagnosticEngine clean;
    lint::lintCircuit(spread, clean);
    EXPECT_EQ(codeCount(clean, "AB107"), 0u);

    // Below the minimum T count: no report even when skewed.
    Circuit small(2, "small");
    for (int i = 0; i < 8; ++i)
        small.t(0);
    small.h(1);
    DiagnosticEngine quiet;
    lint::lintCircuit(small, quiet);
    EXPECT_EQ(codeCount(quiet, "AB107"), 0u);
}

TEST(CircuitLints, DeadGatesAB108)
{
    Circuit c(2, "dead");
    c.h(0);       // feeds the measurement on q0: live
    c.x(1);       // q1 never observed afterwards: dead
    c.measure(0);
    c.z(0);       // after the measurement: dead
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    EXPECT_EQ(codeCount(e, "AB108"), 2u);
}

TEST(CircuitLints, AB108EntanglementKeepsGatesLive)
{
    // h q1 is observed transitively: cx entangles q1 with q0, which
    // is measured.
    Circuit c(2, "entangled");
    c.h(1);
    c.cx(0, 1);
    c.measure(0);
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    EXPECT_EQ(codeCount(e, "AB108"), 0u);
}

TEST(CircuitLints, AB108SilentWithoutMeasurement)
{
    // Pure-unitary circuits (benchmark generators, fuzz cases) have
    // no observation anywhere; flagging every gate would be noise.
    Circuit c(2, "unitary");
    c.h(0);
    c.cx(0, 1);
    DiagnosticEngine e;
    lint::lintCircuit(c, e);
    EXPECT_EQ(codeCount(e, "AB108"), 0u);
}

TEST(CircuitLints, AB108TreatsResetAsKill)
{
    // reset lowers to a Measure gate; the reset table tells AB108 it
    // is a kill, not an observation, so the pre-reset h is dead.
    const std::string src = std::string(kQasmHeader) +
                            "qreg q[1]; creg c[1];\n"
                            "h q[0];\n"
                            "reset q[0];\n"
                            "measure q[0] -> c[0];\n";
    const qasm::ElaboratedCircuit ec =
        qasm::elaborateWithLines(qasm::parse(src), "reset");
    DiagnosticEngine e;
    lint::lintCircuit(ec.circuit, e, nullptr, &ec.reset_gates);
    EXPECT_EQ(codeCount(e, "AB108"), 1u);

    // Without the reset table the lowered Measure masquerades as an
    // observation and hides the dead h.
    DiagnosticEngine blind;
    lint::lintCircuit(ec.circuit, blind);
    EXPECT_EQ(codeCount(blind, "AB108"), 0u);
}

// --------------------------------------------------------------------
// AST-level lints: AB101, AB102, AB104, AB105
// --------------------------------------------------------------------

TEST(ProgramLints, DuplicateOperandsAB101)
{
    const DiagnosticEngine e = lintSource("qreg q[3];\n"
                                          "cx q[1], q[1];\n"
                                          "cx q, q;\n"
                                          "cx q, q[0];\n"
                                          "cx q[0], q[1];\n");
    EXPECT_EQ(codeCount(e, "AB101"), 3u);
    const lint::Diagnostic *d = firstCode(e, "AB101");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_EQ(d->loc.file, "test.qasm");
    EXPECT_EQ(d->loc.line, 4); // first offending call

    const DiagnosticEngine clean =
        lintSource("qreg q[2];\ncx q[0], q[1];\n");
    EXPECT_EQ(codeCount(clean, "AB101"), 0u);
}

TEST(ProgramLints, UseAfterMeasureAB102)
{
    const DiagnosticEngine e = lintSource("qreg q[2]; creg c[2];\n"
                                          "h q[0];\n"
                                          "measure q[0] -> c[0];\n"
                                          "h q[0];\n"
                                          "x q[0];\n");
    // Reported once per qubit, not per use.
    EXPECT_EQ(codeCount(e, "AB102"), 1u);
    EXPECT_EQ(firstCode(e, "AB102")->loc.line, 6);

    const DiagnosticEngine reset =
        lintSource("qreg q[2]; creg c[2];\n"
                   "measure q[0] -> c[0];\n"
                   "reset q[0];\n"
                   "h q[0];\n");
    EXPECT_EQ(codeCount(reset, "AB102"), 0u);
}

TEST(ProgramLints, UnusedCregAB104)
{
    const DiagnosticEngine e =
        lintSource("qreg q[2]; creg used[2]; creg unused[3];\n"
                   "measure q -> used;\n");
    ASSERT_EQ(codeCount(e, "AB104"), 1u);
    EXPECT_NE(firstCode(e, "AB104")->message.find("unused"),
              std::string::npos);

    const DiagnosticEngine clean = lintSource(
        "qreg q[2]; creg c[2];\nmeasure q -> c;\n");
    EXPECT_EQ(codeCount(clean, "AB104"), 0u);
}

TEST(ProgramLints, DeadMeasurementAB109)
{
    const DiagnosticEngine e = lintSource("qreg q[2]; creg c[2];\n"
                                          "measure q[0] -> c[0];\n"
                                          "measure q[1] -> c[0];\n");
    ASSERT_EQ(codeCount(e, "AB109"), 1u);
    const lint::Diagnostic *d = firstCode(e, "AB109");
    // Reported at the earlier, overwritten measurement, pointing at
    // the overwriting line.
    EXPECT_EQ(d->loc.line, 4);
    EXPECT_NE(d->message.find("line 5"), std::string::npos)
        << d->message;

    // The final measurement into each bit is pending at end of
    // program — that is the output, deliberately not reported.
    const DiagnosticEngine clean =
        lintSource("qreg q[2]; creg c[2];\n"
                   "measure q[0] -> c[0];\n"
                   "measure q[1] -> c[1];\n");
    EXPECT_EQ(codeCount(clean, "AB109"), 0u);
}

TEST(ProgramLints, AB109BroadcastOverwrites)
{
    // A whole-register measure writes every bit, overwriting both
    // earlier indexed measurements in one statement.
    const DiagnosticEngine e = lintSource("qreg q[2]; creg c[2];\n"
                                          "measure q[0] -> c[0];\n"
                                          "measure q[1] -> c[1];\n"
                                          "measure q -> c;\n");
    EXPECT_EQ(codeCount(e, "AB109"), 2u);
}

TEST(ProgramLints, WidthMismatchAB105)
{
    // Broadcast over unequal registers.
    const DiagnosticEngine bcast = lintSource(
        "qreg a[2]; qreg b[3];\ncx a, b;\n");
    EXPECT_EQ(codeCount(bcast, "AB105"), 1u);

    // Whole-register measure into a different width.
    const DiagnosticEngine meas = lintSource(
        "qreg q[3]; creg c[2];\nmeasure q -> c;\n");
    EXPECT_EQ(codeCount(meas, "AB105"), 1u);

    // Whole multi-qubit register into a single bit.
    const DiagnosticEngine squash = lintSource(
        "qreg q[3]; creg c[3];\nmeasure q -> c[0];\n");
    EXPECT_EQ(codeCount(squash, "AB105"), 1u);

    // Classical index out of range.
    const DiagnosticEngine oob = lintSource(
        "qreg q[2]; creg c[2];\nmeasure q[0] -> c[5];\n");
    EXPECT_EQ(codeCount(oob, "AB105"), 1u);

    const DiagnosticEngine clean = lintSource(
        "qreg a[2]; qreg b[2]; creg c[2];\n"
        "cx a, b;\nmeasure a -> c;\n");
    EXPECT_EQ(codeCount(clean, "AB105"), 0u);
}

// --------------------------------------------------------------------
// Layout lints: AB201, AB202 / channel bound, AB203
// --------------------------------------------------------------------

TEST(LayoutLints, DeadTileAB201)
{
    const Grid grid(2, 2);
    const auto corners = grid.cornerIds(Cell{0, 0});
    std::vector<VertexId> dead(corners.begin(), corners.end());
    DiagnosticEngine e;
    lint::lintLayout(grid, dead, e);
    EXPECT_EQ(codeCount(e, "AB201"), 1u);
    EXPECT_TRUE(e.hasErrors());

    DiagnosticEngine clean;
    lint::lintLayout(grid, {}, clean);
    EXPECT_EQ(clean.diagnostics().size(), 0u);
}

TEST(LayoutLints, DisconnectionAB203)
{
    // Kill the middle vertex column of a 1x2 grid: the two tiles'
    // live corners fall into separate components.
    const Grid grid(1, 2);
    const std::vector<VertexId> dead{grid.vid(Vertex{0, 1}),
                                     grid.vid(Vertex{1, 1})};
    DiagnosticEngine e;
    lint::lintLayout(grid, dead, e);
    EXPECT_EQ(codeCount(e, "AB201"), 0u);
    EXPECT_EQ(codeCount(e, "AB203"), 1u);
    EXPECT_TRUE(e.hasErrors());

    // A single dead vertex on the same line keeps the graph connected.
    DiagnosticEngine ok;
    lint::lintLayout(grid, {grid.vid(Vertex{0, 1})}, ok);
    EXPECT_EQ(codeCount(ok, "AB203"), 0u);
}

TEST(LayoutLints, ChannelBoundMath)
{
    const Grid grid(1, 2);
    const std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{0, 1})};

    // One braid must cross the only interior vertical line (column
    // 1), which has 2 live vertices: bound = ceil(1 * 10 / 2) = 5.
    const lint::ChannelBound full =
        lint::channelCapacityBound(grid, {}, tasks, 10);
    EXPECT_EQ(full.bound, 5u);
    EXPECT_EQ(full.axis, 'v');
    EXPECT_EQ(full.position, 1);
    EXPECT_EQ(full.crossings, 1u);
    EXPECT_EQ(full.capacity, 2);

    // Halving the cut capacity doubles the bound.
    const lint::ChannelBound narrow = lint::channelCapacityBound(
        grid, {grid.vid(Vertex{0, 1})}, tasks, 10);
    EXPECT_EQ(narrow.bound, 10u);
    EXPECT_EQ(narrow.capacity, 1);

    // No tasks, no bound.
    EXPECT_EQ(lint::channelCapacityBound(grid, {}, {}, 10).bound, 0u);
    // Zero hold derives nothing.
    EXPECT_EQ(lint::channelCapacityBound(grid, {}, tasks, 0).bound,
              0u);
}

TEST(LayoutLints, ChannelBoundMetricAndNote)
{
    const Grid grid(1, 2);
    const std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{0, 1})};
    DiagnosticEngine e;
    lint::lintChannelCapacity(grid, {}, tasks, 10, e);
    EXPECT_EQ(codeCount(e, "AB202"), 1u);
    ASSERT_EQ(e.metrics().count("channel_bound_cycles"), 1u);
    EXPECT_EQ(e.metrics().at("channel_bound_cycles"), 5);
}

TEST(LayoutLints, SurgeryCapacityAB204)
{
    // Killing vertex columns 1 and 3 of a 1x4 strip leaves 6 live
    // vertices; the end-to-end CX's merge region needs its 4 live
    // corners plus 3 bus-interior vertices = 7.
    const Grid grid(1, 4);
    const std::vector<VertexId> dead{
        grid.vid(Vertex{0, 1}), grid.vid(Vertex{1, 1}),
        grid.vid(Vertex{0, 3}), grid.vid(Vertex{1, 3})};
    const std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{0, 3})};
    DiagnosticEngine e;
    lint::lintSurgeryCapacity(grid, dead, tasks, e);
    ASSERT_EQ(codeCount(e, "AB204"), 1u);
    EXPECT_TRUE(e.hasErrors());
    const std::string &msg = firstCode(e, "AB204")->message;
    EXPECT_NE(msg.find(">= 7"), std::string::npos);
    EXPECT_NE(msg.find("side >= 2"), std::string::npos);

    // Defect-free lattices always host every merge region.
    DiagnosticEngine clean;
    lint::lintSurgeryCapacity(grid, {}, tasks, clean);
    EXPECT_TRUE(clean.diagnostics().empty());
    const Grid square(2, 2);
    const std::vector<CxTask> diagonal{
        CxTask::make(0, Cell{0, 0}, Cell{1, 1})};
    DiagnosticEngine clean2;
    lint::lintSurgeryCapacity(square, {}, diagonal, clean2);
    EXPECT_TRUE(clean2.diagnostics().empty());

    // A tile with every corner dead is AB201's report, not AB204's.
    const auto corners = square.cornerIds(Cell{0, 0});
    DiagnosticEngine skip;
    lint::lintSurgeryCapacity(
        square, {corners.begin(), corners.end()}, diagonal, skip);
    EXPECT_EQ(codeCount(skip, "AB204"), 0u);
}

TEST(LayoutLints, EffectiveHold)
{
    CostModel cost;
    cost.distance = 33; // cxCycles = 2d + 2 = 68
    EXPECT_EQ(lint::effectiveHold(cost, 0), cost.cxCycles());
    EXPECT_EQ(lint::effectiveHold(cost, 5), 5u);
    EXPECT_EQ(lint::effectiveHold(cost, 1000), cost.cxCycles());
}

// --------------------------------------------------------------------
// LLG lints: AB301, AB302
// --------------------------------------------------------------------

TEST(LlgLints, CrossingLayerAB301AndAB302)
{
    // Identity placement on a 1x8 strip: CX (0,4) (1,5) (2,6) (3,7)
    // have pairwise-crossing bounding boxes in one concurrent layer —
    // an oversize non-nested LLG (AB301) that is also a Theorem 3
    // 4-clique (AB302).
    const Grid grid(1, 8);
    Circuit c(8, "crossing");
    c.cx(0, 4);
    c.cx(1, 5);
    c.cx(2, 6);
    c.cx(3, 7);
    const Placement placement(grid, 8);
    DiagnosticEngine e;
    lint::lintLlgs(c, placement, e);
    EXPECT_EQ(codeCount(e, "AB301"), 1u);
    EXPECT_EQ(codeCount(e, "AB302"), 1u);
    EXPECT_EQ(e.metrics().at("llg_hard_total"), 1);
    EXPECT_EQ(e.metrics().at("llg_clique_layers"), 1);
    // Theory lints are advisory notes, never errors.
    EXPECT_FALSE(e.hasErrors());
    EXPECT_EQ(e.count(Severity::Warning), 0u);
}

TEST(LlgLints, StrictlyNestedLayerPassesTheorem2)
{
    // Concentric diagonal CXs on an 8x8 grid (row-major identity
    // placement: qubit 8r + c sits at cell (r, c)): boxes strictly
    // nest in both axes, so the oversize LLG satisfies Theorem 2 and
    // AB301 stays quiet.
    const Grid grid(8, 8);
    Circuit c(64, "nested");
    c.cx(0, 63);  // cells (0,0)-(7,7)
    c.cx(9, 54);  // cells (1,1)-(6,6)
    c.cx(18, 45); // cells (2,2)-(5,5)
    c.cx(27, 36); // cells (3,3)-(4,4)
    const Placement placement(grid, 64);
    DiagnosticEngine e;
    lint::lintLlgs(c, placement, e);
    EXPECT_EQ(codeCount(e, "AB301"), 0u);
    EXPECT_EQ(e.metrics().at("llg_hard_total"), 0);
}

TEST(LlgLints, SparseLayerIsClean)
{
    // Two disjoint short braids: LLGs of size 1, no clique possible.
    const Grid grid(1, 8);
    Circuit c(8, "sparse");
    c.cx(0, 1);
    c.cx(4, 5);
    const Placement placement(grid, 8);
    DiagnosticEngine e;
    lint::lintLlgs(c, placement, e);
    EXPECT_TRUE(e.diagnostics().empty());
    EXPECT_EQ(e.metrics().at("llg_hard_total"), 0);
    EXPECT_EQ(e.metrics().at("llg_clique_layers"), 0);
}

TEST(LlgLints, AggregatesBeyondReportCap)
{
    // Seven sequential crossing layers against the cap of four
    // individual reports: four reports plus one aggregate note.
    const Grid grid(1, 8);
    Circuit c(8, "many-layers");
    for (int layer = 0; layer < 7; ++layer) {
        c.cx(0, 4);
        c.cx(1, 5);
        c.cx(2, 6);
        c.cx(3, 7);
    }
    const Placement placement(grid, 8);
    DiagnosticEngine e;
    lint::lintLlgs(c, placement, e);
    EXPECT_EQ(codeCount(e, "AB301"), 5u);
    EXPECT_EQ(e.metrics().at("llg_hard_total"), 7);
}

// --------------------------------------------------------------------
// Peephole shared with the generators
// --------------------------------------------------------------------

TEST(Peephole, CancelsPairsAndCascades)
{
    Circuit c(3, "peep");
    c.t(2);
    c.h(0);
    c.cx(0, 1); // inner pair
    c.cx(0, 1);
    c.h(0); // cascades once the CX pair is gone
    c.cx(1, 2);
    const PeepholeResult out = cancelAdjacentPairs(c);
    EXPECT_EQ(out.removed, 4u);
    ASSERT_EQ(out.circuit.size(), 2u);
    EXPECT_EQ(out.circuit.gate(0).kind, GateKind::T);
    EXPECT_EQ(out.circuit.gate(1).kind, GateKind::CX);
    EXPECT_EQ(out.circuit.name(), "peep");
}

TEST(Peephole, RespectsOrientationAndBlockers)
{
    Circuit c(2, "keep");
    c.cx(0, 1);
    c.cx(1, 0); // flipped: kept
    c.swap(0, 1);
    c.swap(1, 0); // symmetric: cancels
    c.h(0);
    c.measure(0);
    c.h(0); // measurement blocks the pair
    const PeepholeResult out = cancelAdjacentPairs(c);
    EXPECT_EQ(out.removed, 2u);
    EXPECT_EQ(out.circuit.size(), 5u);
}

TEST(Peephole, GeneratorsAreDeadWorkFree)
{
    for (const char *spec : {"grover:4", "grover:6", "mct:6:40:1",
                             "randct:8:60:1", "revlib:rd32-v0"}) {
        const Circuit c = gen::make(spec);
        DiagnosticEngine e;
        lint::lintCircuit(c, e);
        EXPECT_EQ(codeCount(e, "AB106"), 0u) << spec;
    }
    // randct redraws instead of stripping: size stays exact.
    EXPECT_EQ(gen::make("randct:8:60:1").size(), 60u);
}

// --------------------------------------------------------------------
// Driver integration (lint stages, CompileOptions)
// --------------------------------------------------------------------

TEST(LintPass, OffByDefaultLeavesPipelineUntouched)
{
    const Circuit c = gen::make("ghz:8");
    CompileOptions opt;
    const CompileReport report = compileCircuit(c, opt);
    EXPECT_EQ(report.lint, nullptr);
    for (const PassTiming &t : report.pass_timings)
        EXPECT_NE(t.pass, "lint");
}

TEST(LintPass, RunsAfterInitialPlacement)
{
    const Circuit c = gen::make("ghz:8");
    CompileOptions opt;
    opt.lint.level = LintLevel::All;
    const CompileReport report = compileCircuit(c, opt);
    ASSERT_NE(report.lint, nullptr);
    int placement_at = -1;
    int lint_at = -1;
    for (size_t i = 0; i < report.pass_timings.size(); ++i) {
        if (report.pass_timings[i].pass == "initial-placement")
            placement_at = static_cast<int>(i);
        if (report.pass_timings[i].pass == "lint")
            lint_at = static_cast<int>(i);
    }
    ASSERT_GE(placement_at, 0);
    ASSERT_GE(lint_at, 0);
    EXPECT_EQ(lint_at, placement_at + 1);
    // The lint engine carries the channel-bound metric.
    EXPECT_EQ(report.lint->metrics().count("channel_bound_cycles"),
              1u);
}

TEST(LintPass, BenchmarksLintCleanAndBoundSound)
{
    for (const char *spec :
         {"qft:9", "ghz:8", "im:9:2", "grover:4", "qaoa:8:2",
          "adder:4", "randct:8:60:1"}) {
        const Circuit c = gen::make(spec);
        for (SchedulerPolicy policy : {SchedulerPolicy::Baseline,
                                       SchedulerPolicy::AutobraidFull}) {
            CompileOptions opt;
            opt.policy = policy;
            opt.lint.level = LintLevel::All;
            const CompileReport report = compileCircuit(c, opt);
            ASSERT_NE(report.lint, nullptr) << spec;
            EXPECT_EQ(report.lint->count(Severity::Error), 0u)
                << spec;
            EXPECT_EQ(report.lint->count(Severity::Warning), 0u)
                << spec;
            const auto &metrics = report.lint->metrics();
            const auto it = metrics.find("channel_bound_cycles");
            ASSERT_NE(it, metrics.end()) << spec;
            if (it->second > 0 &&
                report.result.swaps_inserted == 0 &&
                !report.used_maslov) {
                EXPECT_LE(static_cast<Cycles>(it->second),
                          report.result.makespan)
                    << spec << " under " << policyName(policy);
            }
        }
    }
}

TEST(LintPass, WerrorAndSuppressionFlow)
{
    // A circuit with dead work produces an AB106 warning; werror
    // promotes it; suppressing the family removes it.
    Circuit c(2, "warny");
    c.h(0);
    c.h(0);
    c.cx(0, 1);

    CompileOptions warn;
    warn.lint.level = LintLevel::All;
    const CompileReport r1 = compileCircuit(c, warn);
    ASSERT_NE(r1.lint, nullptr);
    EXPECT_EQ(r1.lint->count(Severity::Warning), 1u);
    EXPECT_FALSE(r1.lint->hasErrors());

    CompileOptions werror = warn;
    werror.lint.werror = true;
    const CompileReport r2 = compileCircuit(c, werror);
    ASSERT_NE(r2.lint, nullptr);
    EXPECT_TRUE(r2.lint->hasErrors());
    // Lint is advisory: the compile still succeeds.
    EXPECT_TRUE(r2.result.valid);

    CompileOptions hush = werror;
    hush.lint.suppressions = {"AB1xx"};
    const CompileReport r3 = compileCircuit(c, hush);
    ASSERT_NE(r3.lint, nullptr);
    EXPECT_FALSE(r3.lint->hasErrors());
    EXPECT_GE(r3.lint->suppressedCount(), 1u);
}

TEST(LintPass, UnknownSuppressionRejected)
{
    const Circuit c = gen::make("ghz:8");
    CompileOptions opt;
    opt.lint.level = LintLevel::All;
    opt.lint.suppressions = {"AB404"};
    EXPECT_THROW(compileCircuit(c, opt), UserError);
    opt.lint.suppressions = {"AB9xx"};
    EXPECT_THROW(compileCircuit(c, opt), UserError);
    opt.lint.suppressions = {"AB101", "AB3xx"};
    EXPECT_NO_THROW(compileCircuit(c, opt));
}

// --------------------------------------------------------------------
// Fuzz-harness lint oracle (pinned seed block)
// --------------------------------------------------------------------

TEST(LintOracle, PinnedSeedBlockIsClean)
{
    fuzz::FuzzOptions opt;
    opt.start_seed = 7701; // pinned: distinct from other suites
    opt.seeds = 15;
    opt.lint_oracle = true;
    opt.batch_stride = 0;      // covered by test_fuzzer
    opt.degenerate_stride = 0; // covered by test_fuzzer
    const fuzz::FuzzSummary summary = fuzz::runFuzz(opt);
    EXPECT_TRUE(summary.ok()) << summary.toString();
    EXPECT_EQ(summary.cases, 15);
}

TEST(LintOracle, CanBeDisabled)
{
    const fuzz::FuzzCase c = fuzz::makeFuzzCase(7702);
    const fuzz::DifferentialResult with =
        fuzz::runDifferentialCase(c, fuzz::kMaskAutobraidFull, true);
    EXPECT_TRUE(with.ok) << with.toString();
    ASSERT_EQ(with.runs.size(), 1u);
    EXPECT_NE(with.runs[0].report.lint, nullptr);

    const fuzz::DifferentialResult without =
        fuzz::runDifferentialCase(c, fuzz::kMaskAutobraidFull, false);
    EXPECT_TRUE(without.ok) << without.toString();
    ASSERT_EQ(without.runs.size(), 1u);
    EXPECT_EQ(without.runs[0].report.lint, nullptr);
}

// --------------------------------------------------------------------
// Lint corpus (tests/lint-corpus): files with seeded defects, each
// documenting the diagnostics it must produce.
// --------------------------------------------------------------------

std::string
corpusPath(const char *name)
{
    return std::string(AB_LINT_CORPUS_DIR) + "/" + name;
}

TEST(Corpus, BadAstSeededDiagnostics)
{
    const qasm::Program program =
        qasm::parseFile(corpusPath("bad_ast.qasm"));
    DiagnosticEngine e;
    lint::runProgramAnalyses(program, e, "bad_ast.qasm");
    EXPECT_EQ(codeCount(e, "AB101"), 1u);
    EXPECT_EQ(codeCount(e, "AB102"), 1u);
    EXPECT_EQ(codeCount(e, "AB104"), 1u);
    EXPECT_EQ(codeCount(e, "AB105"), 2u);
}

TEST(Corpus, BadCircuitSeededDiagnostics)
{
    const qasm::ElaboratedCircuit ec = qasm::elaborateWithLines(
        qasm::parseFile(corpusPath("bad_circuit.qasm")),
        "bad_circuit.qasm");
    DiagnosticEngine e;
    lint::lintCircuit(ec.circuit, e);
    EXPECT_EQ(codeCount(e, "AB103"), 1u);
    EXPECT_EQ(codeCount(e, "AB106"), 1u);
    EXPECT_EQ(codeCount(e, "AB107"), 1u);
}

TEST(Corpus, SurgeryGridAB204)
{
    const qasm::ElaboratedCircuit ec = qasm::elaborateWithLines(
        qasm::parseFile(corpusPath("surgery_grid.qasm")),
        "surgery_grid.qasm");
    const Grid grid = Grid::forQubits(ec.circuit.numQubits());
    ASSERT_EQ(grid.rows(), 2);
    ASSERT_EQ(grid.cols(), 2);
    // The plus-shaped dead set documented in the corpus file.
    const std::vector<VertexId> dead{
        grid.vid(Vertex{0, 1}), grid.vid(Vertex{1, 0}),
        grid.vid(Vertex{1, 1}), grid.vid(Vertex{1, 2}),
        grid.vid(Vertex{2, 1})};
    const Placement placement(grid, ec.circuit.numQubits());
    DiagnosticEngine e;
    lint::runCircuitAnalyses(ec.circuit, grid, dead, &placement, e);
    EXPECT_EQ(codeCount(e, "AB204"), 1u);
    EXPECT_EQ(codeCount(e, "AB203"), 1u); // documented co-fire
    // The minimum-side note survives into the SARIF output.
    const std::string sarif = e.toSarif();
    EXPECT_TRUE(JsonChecker(sarif).valid());
    EXPECT_NE(sarif.find("\"ruleId\":\"AB204\""), std::string::npos);
    EXPECT_NE(sarif.find("side >= 2"), std::string::npos);
}

// --------------------------------------------------------------------
// Fix loop: lint -> apply fixes -> re-lint clean, fixed point reached
// --------------------------------------------------------------------

/** Lint @p text the way autobraid_lint does (AST + circuit levels). */
DiagnosticEngine
lintQasmText(const std::string &text, const std::string &file)
{
    DiagnosticEngine engine;
    const qasm::Program program = qasm::parse(text);
    lint::runProgramAnalyses(program, engine, file);
    qasm::ElaboratedCircuit ec =
        qasm::elaborateWithLines(program, file);
    lint::GateProvenance prov;
    prov.file = file;
    prov.lines = ec.gate_lines;
    lint::lintCircuit(ec.circuit, engine, &prov, &ec.reset_gates);
    return engine;
}

TEST(Fixes, FixLoopConvergesAndRelintsClean)
{
    const std::string file = "fixme.qasm";
    const std::string text = std::string(kQasmHeader) +
                             "qreg q[2];\n"    // line 3
                             "qreg spare[3];\n" // AB103: delete
                             "creg unused[2];\n" // AB104: delete
                             "h q[0];\n"        // AB106 pair:
                             "h q[0];\n"        //   delete both
                             "cx q[0], q[1];\n";
    const DiagnosticEngine first = lintQasmText(text, file);
    EXPECT_GE(codeCount(first, "AB103"), 1u);
    EXPECT_EQ(codeCount(first, "AB104"), 1u);
    EXPECT_EQ(codeCount(first, "AB106"), 1u);
    const auto fixes =
        lint::collectFixesForFile(first.diagnostics(), file);
    ASSERT_FALSE(fixes.empty());

    const lint::FixResult fixed = lint::applyFixes(text, fixes);
    EXPECT_TRUE(fixed.changed);
    EXPECT_EQ(fixed.skipped, 0u);
    EXPECT_GE(fixed.applied, 4u); // two decls + the H-H pair

    // The fixed file re-lints clean of every fixable family and
    // offers no further fixes: the loop converged in one pass.
    const DiagnosticEngine second = lintQasmText(fixed.text, file);
    EXPECT_EQ(codeCount(second, "AB103"), 0u);
    EXPECT_EQ(codeCount(second, "AB104"), 0u);
    EXPECT_EQ(codeCount(second, "AB106"), 0u);
    const auto again =
        lint::collectFixesForFile(second.diagnostics(), file);
    EXPECT_TRUE(again.empty());
    const lint::FixResult noop = lint::applyFixes(fixed.text, again);
    EXPECT_FALSE(noop.changed);
    EXPECT_EQ(noop.text, fixed.text);
}

// --------------------------------------------------------------------
// Docs parity
// --------------------------------------------------------------------

TEST(Docs, StaticAnalysisCatalogParity)
{
    std::ifstream in(std::string(AB_DOCS_DIR) +
                     "/static-analysis.md");
    ASSERT_TRUE(in.good()) << "docs/static-analysis.md missing";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    for (const lint::DiagInfo &info : lint::diagnosticCatalog())
        EXPECT_NE(doc.find(info.code), std::string::npos)
            << info.code << " undocumented";
}

} // namespace
} // namespace autobraid
