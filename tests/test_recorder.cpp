/**
 * @file
 * Flight-recording tests: recording never perturbs the schedule,
 * flightRecording derives lifecycles and stalls from a hand-built
 * trace and blocked log, recordings satisfy the exact-sum lifecycle
 * invariant under both communication backends, the congestion heatmap
 * reconciles with the schedule trace and the utilization numerator,
 * recordings are byte-identical across batch thread counts, and the
 * emitted JSON round-trips through the JSON reader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "lattice/defects.hpp"
#include "place/linear.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/recorder.hpp"
#include "testing/fuzzer.hpp"

namespace autobraid {
namespace {

CompileReport
compileRecorded(const std::string &spec, SchedulerBackend backend,
                bool record = true)
{
    CompileOptions opt;
    opt.backend = backend;
    opt.record_trace = true;
    opt.record_lifecycle = record;
    return compileCircuit(gen::make(spec), opt);
}

TEST(Recorder, OffByDefaultIsNoOp)
{
    CompileOptions opt;
    const CompileReport report =
        compileCircuit(gen::make("qft:9"), opt);
    EXPECT_EQ(report.result.recording, nullptr);

    // Recording must observe the schedule, not perturb it.
    const CompileReport recorded =
        compileRecorded("qft:9", SchedulerBackend::Braiding);
    ASSERT_NE(recorded.result.recording, nullptr);
    EXPECT_EQ(report.result.makespan, recorded.result.makespan);
}

class RecorderLifecycle
    : public testing::TestWithParam<SchedulerBackend>
{};

TEST_P(RecorderLifecycle, ExactSumInvariant)
{
    for (const char *spec : {"qft:12", "im:12:3", "ghz:8"}) {
        const CompileReport report =
            compileRecorded(spec, GetParam());
        ASSERT_NE(report.result.recording, nullptr) << spec;
        const telemetry::FlightRecording &rec =
            *report.result.recording;

        EXPECT_EQ(rec.makespan, report.result.makespan) << spec;
        uint64_t stall_by_cause[telemetry::kNumStallCauses] = {0};
        uint64_t blocked_attempts = 0;
        for (const telemetry::GateRecord &g : rec.gates) {
            ASSERT_TRUE(g.complete()) << spec;
            EXPECT_LE(g.ready, g.dispatched) << spec;
            EXPECT_LE(g.dispatched, g.retired) << spec;
            // The invariant the whole design hangs on: per-gate stall
            // cycles sum to exactly the ready->dispatch wait.
            EXPECT_EQ(g.stallTotal(), g.dispatched - g.ready) << spec;
            for (size_t c = 0; c < telemetry::kNumStallCauses; ++c)
                stall_by_cause[c] += g.stall[c];
            blocked_attempts += g.blocked_attempts;
        }
        for (size_t c = 0; c < telemetry::kNumStallCauses; ++c)
            EXPECT_EQ(rec.stall_totals[c], stall_by_cause[c]) << spec;
        EXPECT_EQ(rec.blocked.size(), blocked_attempts) << spec;
    }
}

/**
 * Per vertex, the cycles @p trace's regions hold it, each hold ending
 * at its release or at @p end, whichever is first.
 */
std::vector<uint64_t>
heldCycles(const std::vector<TraceEntry> &trace, size_t vertices,
           Cycles end)
{
    std::vector<uint64_t> held(vertices, 0);
    for (const TraceEntry &e : trace) {
        const Cycles until = std::min(e.channel_release, end);
        if (until > e.start)
            for (VertexId v : e.path.vertices)
                held[static_cast<size_t>(v)] += until - e.start;
    }
    return held;
}

TEST_P(RecorderLifecycle, HeatmapMatchesTrace)
{
    // Every acquired region shows up in the trace. Vertex by vertex,
    // the heatmap is the trace's holds clamped to the makespan, and its
    // sum is the average utilization's numerator, bit for bit.
    for (const int defects : {0, 3}) {
        CompileOptions opt;
        opt.backend = GetParam();
        opt.record_trace = true;
        opt.record_lifecycle = true;
        opt.channel_hold_cycles = defects == 0 ? 0 : 5;
        const Circuit circuit =
            gen::make(defects == 0 ? "im:12:3" : "qaoa:12");
        const Grid grid = Grid::forQubits(circuit.numQubits());
        opt.dead_vertices = injectedDefects(grid, defects, opt.seed);
        const ScheduleResult r = compileCircuit(circuit, opt).result;
        ASSERT_NE(r.recording, nullptr) << defects;
        const telemetry::FlightRecording &rec = *r.recording;
        EXPECT_EQ(rec.vertex_busy_cycles,
                  heldCycles(r.trace,
                             static_cast<size_t>(grid.numVertices()),
                             r.makespan))
            << defects;
        const size_t routable = static_cast<size_t>(grid.numVertices()) -
                                opt.dead_vertices.size();
        EXPECT_EQ(r.avg_utilization,
                  static_cast<double>(rec.heatmapSum()) /
                      (static_cast<double>(r.makespan) *
                       static_cast<double>(routable)))
            << defects;
    }
}

TEST_P(RecorderLifecycle, ChannelHoldHeatmapMatchesBusyCycles)
{
    // Teleport-style early release (channel_hold) is the edge case
    // for region accounting: holds shorter than the CX window, holds
    // clamped to the gate duration, and the degenerate hold that the
    // scheduler must not record at all (until <= t would be an empty
    // window). The heatmap must still reconcile exactly with the
    // clamped trace under both backends.
    for (const Cycles hold : {Cycles{1}, Cycles{3}, Cycles{100000}}) {
        CompileOptions opt;
        opt.backend = GetParam();
        opt.record_trace = true;
        opt.record_lifecycle = true;
        opt.channel_hold_cycles = hold;
        const CompileReport report =
            compileCircuit(gen::make("qft:8"), opt);
        const ScheduleResult &r = report.result;
        ASSERT_NE(r.recording, nullptr) << hold;
        uint64_t busy = 0;
        for (const TraceEntry &e : r.trace) {
            const Cycles end = std::min(e.channel_release, r.makespan);
            if (end <= e.start)
                continue;
            busy += static_cast<uint64_t>(e.path.length()) *
                    (end - e.start);
        }
        EXPECT_EQ(r.recording->heatmapSum(), busy) << hold;
    }
}

TEST_P(RecorderLifecycle, UtilizationClampedToScheduleWindow)
{
    // Regression pin for the utilization numerator: busy vertex-cycles
    // accrue at dispatch time, so a hold that outlives the schedule
    // window must be trimmed back to the makespan — otherwise avg can
    // exceed peak (or even 1.0). The average must be recomputable from
    // the trace with every release clamped to the makespan.
    for (const Cycles hold : {Cycles{0}, Cycles{1}, Cycles{4}}) {
        CompileOptions opt;
        opt.backend = GetParam();
        opt.record_trace = true;
        opt.record_lifecycle = true;
        opt.channel_hold_cycles = hold;
        const CompileReport report =
            compileCircuit(gen::make("ghz:6"), opt);
        const ScheduleResult &r = report.result;
        ASSERT_NE(r.recording, nullptr) << hold;
        EXPECT_GE(r.avg_utilization, 0.0) << hold;
        EXPECT_LE(r.avg_utilization, r.peak_utilization) << hold;
        EXPECT_LE(r.peak_utilization, 1.0) << hold;

        uint64_t busy = 0;
        for (const TraceEntry &e : r.trace) {
            const Cycles end = std::min(e.channel_release, r.makespan);
            if (end <= e.start)
                continue;
            busy += static_cast<uint64_t>(e.path.length()) *
                    (end - e.start);
        }
        const double routable =
            static_cast<double>(r.recording->grid_rows) *
            static_cast<double>(r.recording->grid_cols);
        ASSERT_GT(r.makespan, 0u) << hold;
        EXPECT_NEAR(r.avg_utilization,
                    static_cast<double>(busy) /
                        (static_cast<double>(r.makespan) * routable),
                    1e-9)
            << hold;
    }
}

TEST_P(RecorderLifecycle, DecodeRoundTripsToJson)
{
    const CompileReport report = compileRecorded("qft:12", GetParam());
    ASSERT_NE(report.result.recording, nullptr);
    const std::string text = report.result.recording->toJson();
    const telemetry::FlightRecording back =
        telemetry::decodeRecording(text);
    EXPECT_FALSE(back.blocked.empty());
    EXPECT_EQ(back.toJson(), text);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RecorderLifecycle,
    testing::Values(SchedulerBackend::Braiding,
                    SchedulerBackend::LatticeSurgery));

TEST(Recorder, StarvedMaslovRunTrimsPendingHolds)
{
    // A Maslov run that starves keeps issuing swap phases after its
    // last retirement, so some holds end, and some start, past the
    // makespan. The run is discarded, but vertex by vertex its heatmap
    // is still the trace's holds clamped to the makespan, below the
    // unclamped holds, and still sums to its utilization numerator.
    for (uint64_t seed = 1; seed <= 1000; ++seed) {
        const fuzz::FuzzCase c = fuzz::makeFuzzCase(seed);
        if (c.options.dead_vertices.empty())
            continue;
        const Grid grid = Grid::forQubits(c.circuit.numQubits());
        SchedulerConfig config = c.options;
        config.backend = SchedulerBackend::Braiding;
        config.record_trace = true;
        config.record_lifecycle = true;
        std::vector<Qubit> order(
            static_cast<size_t>(c.circuit.numQubits()));
        for (Qubit q = 0; q < c.circuit.numQubits(); ++q)
            order[static_cast<size_t>(q)] = q;
        const ScheduleResult r = BraidScheduler(c.circuit, grid, config)
                                     .runMaslov(snakePlacement(grid, order));
        if (r.valid)
            continue;
        ASSERT_NE(r.recording, nullptr) << seed;
        const telemetry::FlightRecording &rec = *r.recording;
        const auto vertices = static_cast<size_t>(grid.numVertices());
        EXPECT_EQ(rec.vertex_busy_cycles,
                  heldCycles(r.trace, vertices, r.makespan))
            << seed;
        const std::vector<uint64_t> unclamped =
            heldCycles(r.trace, vertices, telemetry::kNoCycle);
        EXPECT_LT(rec.heatmapSum(),
                  std::accumulate(unclamped.begin(), unclamped.end(),
                                  uint64_t{0}));
        const size_t routable = vertices - c.options.dead_vertices.size();
        EXPECT_EQ(r.avg_utilization,
                  static_cast<double>(rec.heatmapSum()) /
                      (static_cast<double>(r.makespan) *
                       static_cast<double>(routable)));
        for (const TraceEntry &e : r.trace) {
            if (e.gate == kNoGate)
                continue;
            EXPECT_EQ(rec.gates[e.gate].retired == telemetry::kNoCycle,
                      e.finish > r.makespan)
                << e.gate;
        }
        return;
    }
    FAIL() << "no fuzz case starved the Maslov network";
}

TEST(Recorder, ByteIdenticalAcrossBatchThreads)
{
    const char *specs[] = {"qft:10", "im:10:2", "ghz:8", "qft:12"};
    std::vector<std::string> json_by_threads[2];
    const int thread_counts[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        BatchOptions bopt;
        bopt.threads = thread_counts[i];
        BatchCompiler batch(bopt);
        for (const char *spec : specs) {
            CompileOptions opt;
            opt.record_lifecycle = true;
            batch.addSpec(spec, opt);
        }
        for (const BatchResult &r : batch.compileAll()) {
            ASSERT_TRUE(r.ok) << r.error;
            ASSERT_NE(r.report.result.recording, nullptr);
            json_by_threads[i].push_back(
                r.report.result.recording->toJson());
        }
    }
    ASSERT_EQ(json_by_threads[0].size(), json_by_threads[1].size());
    for (size_t i = 0; i < json_by_threads[0].size(); ++i)
        EXPECT_EQ(json_by_threads[0][i], json_by_threads[1][i])
            << specs[i];
}

TEST(Recorder, JsonRoundTripsThroughReader)
{
    const CompileReport report =
        compileRecorded("qft:10", SchedulerBackend::Braiding);
    ASSERT_NE(report.result.recording, nullptr);
    const telemetry::FlightRecording &rec = *report.result.recording;

    const json::Value doc = json::parse(rec.toJson());
    EXPECT_EQ(doc.stringOr("format", ""), "autobraid-recording");
    EXPECT_EQ(doc.numberOr("version", 0), 1.0);
    EXPECT_EQ(static_cast<uint64_t>(doc.numberOr("makespan", 0)),
              rec.makespan);
    ASSERT_NE(doc.find("gates"), nullptr);
    EXPECT_EQ(doc.find("gates")->asArray().size(), rec.gates.size());
    ASSERT_NE(doc.find("stall_totals"), nullptr);
    EXPECT_EQ(static_cast<uint64_t>(doc.find("stall_totals")
                                        ->numberOr("congestion", 0)),
              rec.stall_totals[static_cast<size_t>(
                  telemetry::StallCause::Congestion)]);
    ASSERT_NE(doc.find("vertex_busy_cycles"), nullptr);
    EXPECT_EQ(doc.find("vertex_busy_cycles")->asArray().size(),
              rec.vertex_busy_cycles.size());
}

/** The UserError text of decoding @p text ("" when it decodes). */
std::string
decodeError(const std::string &text)
{
    try {
        telemetry::decodeRecording(text);
    } catch (const UserError &e) {
        return e.what();
    }
    return "";
}

TEST(Recorder, DecodeRejectsHostileDocumentsByField)
{
    telemetry::FlightRecording rec;
    rec.grid_rows = 2;
    rec.grid_cols = 2;
    rec.makespan = 2;
    rec.vertex_busy_cycles.assign(4, 0);
    telemetry::GateRecord &gate = rec.gates.emplace_back();
    gate.kind = "h";
    gate.q0 = 3;
    gate.ready = gate.dispatched = gate.retired = 2;
    const std::string good = rec.toJson();
    EXPECT_EQ(decodeError(good), "");

    // Each mutation would have sized a loop or a cast from the field.
    const auto mutated = [&good](const std::string &from,
                                 const std::string &to) {
        std::string doc = good;
        doc.replace(doc.find(from), from.size(), to);
        return decodeError(doc);
    };
    const auto names = [](const std::string &error, const char *field) {
        return error.find(field) != std::string::npos;
    };
    EXPECT_TRUE(names(mutated("\"grid_rows\": 2", "\"grid_rows\": 1e9"),
                      "vertex_busy_cycles"));
    EXPECT_TRUE(names(mutated("\"q0\": 3", "\"q0\": 4"), "q0"));
    EXPECT_TRUE(names(mutated("\"q1\": -1", "\"q1\": 1e9"), "q1"));
    EXPECT_TRUE(names(mutated("\"makespan\": 2", "\"makespan\": -5"),
                      "makespan"));
    EXPECT_TRUE(names(mutated("\"retired\": 2", "\"retired\": 1e300"),
                      "retired"));
    EXPECT_TRUE(names(mutated("[0, 0, 0, 0]", "[0, 0, 0, -1]"),
                      "vertex_busy_cycles"));
    EXPECT_TRUE(names(mutated("\"blocked_attempts\": 0",
                              "\"blocked_attempts\": 0.5"),
                      "blocked_attempts"));
    EXPECT_TRUE(names(mutated("\"circuit\": \"\"", "\"circuit\": 7"),
                      "circuit"));
    EXPECT_TRUE(names(mutated("\"blocked_events\": [",
                              "\"blocked_events\": [{\"gate\": 0, "
                              "\"cycle\": 1, \"cause\": \"x\"}"),
                      "stall cause"));
}

/** Stall cycles of @p by_cause charged to @p cause. */
uint64_t
stallOf(const uint64_t *by_cause, telemetry::StallCause cause)
{
    return by_cause[static_cast<size_t>(cause)];
}

TEST(FlightRecording, ComputedFromTraceAndBlockedLog)
{
    using telemetry::StallCause;
    Circuit circuit(4, "hand");
    circuit.cx(0, 1); // waits on three causes
    circuit.h(2);     // never examined
    circuit.cx(1, 2); // in flight when the run stopped
    circuit.cx(0, 3); // still waiting when the run stopped
    circuit.h(3);     // never ready
    const Cycles makespan = 30;
    const std::vector<TraceEntry> trace = {
        {1, 5, 9, Path{}, 9, kNoQubit, kNoQubit},
        {kNoGate, 20, 24, Path{{0, 3}}, 24, 0, 1},
        {0, 26, 30, Path{{1, 4}}, 30, kNoQubit, kNoQubit},
        {2, 26, 40, Path{{5, 8}}, 40, kNoQubit, kNoQubit},
    };
    const std::vector<telemetry::BlockedEvent> blocked = {
        {0, 10, StallCause::Dependence},
        {0, 15, StallCause::Congestion},
        {0, 20, StallCause::RegionConflict},
        {2, 20, StallCause::Defect},
        {2, 22, StallCause::Defect},
        {3, 28, StallCause::Congestion},
    };
    const std::vector<uint64_t> busy = {0, 4, 0, 4, 4, 4, 0, 0, 4};
    const telemetry::FlightRecording rec = flightRecording(
        circuit, Grid(2, 2), SchedulerPolicy::AutobraidFull,
        SchedulerBackend::LatticeSurgery, trace, blocked, busy, makespan);

    EXPECT_EQ(rec.circuit, "hand");
    EXPECT_EQ(rec.policy, "full");
    EXPECT_EQ(rec.backend, "surgery");
    EXPECT_EQ(rec.grid_rows, 3);
    EXPECT_EQ(rec.grid_cols, 3);
    EXPECT_EQ(rec.makespan, makespan);
    ASSERT_EQ(rec.gates.size(), 5u);

    // Ready at the first examination; each wait is charged to the
    // cause seen at its start, the last one up to the dispatch.
    const telemetry::GateRecord &g0 = rec.gates[0];
    EXPECT_EQ(g0.kind, "cx");
    EXPECT_EQ(g0.q1, 1);
    EXPECT_EQ(g0.ready, 10u);
    EXPECT_EQ(g0.dispatched, 26u);
    EXPECT_EQ(g0.retired, 30u);
    EXPECT_EQ(stallOf(g0.stall, StallCause::Dependence), 5u);
    EXPECT_EQ(stallOf(g0.stall, StallCause::Congestion), 5u);
    EXPECT_EQ(stallOf(g0.stall, StallCause::RegionConflict), 6u);
    EXPECT_EQ(stallOf(g0.stall, StallCause::Defect), 0u);
    EXPECT_EQ(g0.stallTotal(), g0.dispatched - g0.ready);
    EXPECT_EQ(g0.blocked_attempts, 3u);

    // Never examined: ready when it dispatched, no stall.
    const telemetry::GateRecord &g1 = rec.gates[1];
    EXPECT_EQ(g1.kind, "h");
    EXPECT_EQ(g1.q1, -1);
    EXPECT_EQ(g1.ready, 5u);
    EXPECT_EQ(g1.dispatched, 5u);
    EXPECT_EQ(g1.retired, 9u);
    EXPECT_EQ(g1.stallTotal(), 0u);
    EXPECT_EQ(g1.blocked_attempts, 0u);

    // Finishes past the makespan: dispatched but never retired.
    const telemetry::GateRecord &g2 = rec.gates[2];
    EXPECT_EQ(g2.ready, 20u);
    EXPECT_EQ(g2.dispatched, 26u);
    EXPECT_EQ(g2.retired, telemetry::kNoCycle);
    EXPECT_FALSE(g2.complete());
    EXPECT_EQ(stallOf(g2.stall, StallCause::Defect), 6u);
    EXPECT_EQ(g2.blocked_attempts, 2u);

    // Examined but never dispatched: its open wait is not charged.
    const telemetry::GateRecord &g3 = rec.gates[3];
    EXPECT_EQ(g3.ready, 28u);
    EXPECT_EQ(g3.dispatched, telemetry::kNoCycle);
    EXPECT_EQ(g3.retired, telemetry::kNoCycle);
    EXPECT_EQ(g3.stallTotal(), 0u);
    EXPECT_EQ(g3.blocked_attempts, 1u);

    const telemetry::GateRecord &g4 = rec.gates[4];
    EXPECT_EQ(g4.ready, telemetry::kNoCycle);
    EXPECT_EQ(g4.dispatched, telemetry::kNoCycle);
    EXPECT_EQ(g4.blocked_attempts, 0u);

    EXPECT_EQ(stallOf(rec.stall_totals, StallCause::Dependence), 5u);
    EXPECT_EQ(stallOf(rec.stall_totals, StallCause::Congestion), 5u);
    EXPECT_EQ(stallOf(rec.stall_totals, StallCause::RegionConflict), 6u);
    EXPECT_EQ(stallOf(rec.stall_totals, StallCause::Defect), 6u);
    ASSERT_EQ(rec.blocked.size(), blocked.size());
    for (size_t i = 0; i < blocked.size(); ++i) {
        EXPECT_EQ(rec.blocked[i].gate, blocked[i].gate) << i;
        EXPECT_EQ(rec.blocked[i].cycle, blocked[i].cycle) << i;
        EXPECT_EQ(rec.blocked[i].cause, blocked[i].cause) << i;
    }
    EXPECT_EQ(rec.vertex_busy_cycles, busy);
}

} // namespace
} // namespace autobraid
