/**
 * @file
 * Flight-recorder tests: the recorder is a strict no-op when disabled,
 * recordings satisfy the exact-sum lifecycle invariant under both
 * communication backends, the congestion heatmap reconciles with the
 * schedule trace, recordings are byte-identical across batch thread
 * counts, and the emitted JSON round-trips through the JSON reader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "telemetry/recorder.hpp"

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

TEST_P(RecorderLifecycle, HeatmapMatchesTrace)
{
    const CompileReport report = compileRecorded("im:12:3", GetParam());
    ASSERT_NE(report.result.recording, nullptr);
    const telemetry::FlightRecording &rec = *report.result.recording;

    // Every acquired region shows up in the trace; the heatmap must
    // account for exactly the same vertex-cycles. Holds are clamped to
    // the schedule window (releases past the makespan are trimmed).
    uint64_t trace_vertex_cycles = 0;
    for (const TraceEntry &e : report.result.trace) {
        const Cycles end =
            std::min(e.channel_release, report.result.makespan);
        if (e.path.empty() || end <= e.start)
            continue;
        trace_vertex_cycles +=
            static_cast<uint64_t>(e.path.length()) * (end - e.start);
    }
    EXPECT_EQ(rec.heatmapSum(), trace_vertex_cycles);
    EXPECT_EQ(rec.vertex_busy_cycles.size(),
              static_cast<size_t>(rec.grid_rows) *
                  static_cast<size_t>(rec.grid_cols));
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
    telemetry::FlightRecorder recorder(1, 4);
    recorder.meta().grid_rows = 2;
    recorder.meta().grid_cols = 2;
    recorder.gate(0).kind = "h";
    recorder.gate(0).q0 = 3;
    recorder.onRetired(0, 2);
    const std::string good = recorder.finish(2).toJson();
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

TEST(Recorder, TrimVertexBusyMirrorsUtilizationClamp)
{
    telemetry::FlightRecorder recorder(0, 4);
    const int32_t vs[] = {1, 3};
    recorder.onRegionHeld(vs, 2, 10, 20);

    recorder.trimVertexBusy(1, 4);    // partial trim
    recorder.trimVertexBusy(3, 100);  // larger than the cell: clamps
    recorder.trimVertexBusy(2, 5);    // untouched vertex stays zero
    recorder.trimVertexBusy(-1, 5);   // out of range: ignored
    recorder.trimVertexBusy(99, 5);   // out of range: ignored

    const telemetry::FlightRecording rec = recorder.finish(20);
    EXPECT_EQ(rec.vertex_busy_cycles[1], 6u);
    EXPECT_EQ(rec.vertex_busy_cycles[2], 0u);
    EXPECT_EQ(rec.vertex_busy_cycles[3], 0u);
    EXPECT_EQ(rec.heatmapSum(), 6u);
}

TEST(Recorder, UnitLifecycleAndAttribution)
{
    telemetry::FlightRecorder recorder(2, 4);
    recorder.onReady(0, 10);
    recorder.onReady(0, 12); // idempotent: first examination wins
    recorder.onBlocked(0, 15, telemetry::StallCause::Congestion);
    recorder.onBlocked(0, 20, telemetry::StallCause::RegionConflict);
    recorder.onDispatched(0, 26);
    recorder.onRetired(0, 30);

    // Gate 1 dispatches the instant it becomes ready.
    recorder.onReady(1, 5);
    recorder.onDispatched(1, 5);
    recorder.onRetired(1, 9);

    const int32_t vs[] = {0, 2};
    recorder.onRegionHeld(vs, 2, 26, 30);
    recorder.onRegionHeld(vs, 2, 30, 30); // empty window: no-op

    const telemetry::FlightRecording rec = recorder.finish(30);
    const telemetry::GateRecord &g0 = rec.gates[0];
    EXPECT_EQ(g0.ready, 10u);
    EXPECT_EQ(g0.dispatched, 26u);
    EXPECT_EQ(g0.retired, 30u);
    // [10,15) had no pending cause yet -> charged to dependence;
    // [15,20) to congestion; [20,26) to region_conflict.
    EXPECT_EQ(g0.stall[static_cast<size_t>(
                  telemetry::StallCause::Dependence)],
              5u);
    EXPECT_EQ(g0.stall[static_cast<size_t>(
                  telemetry::StallCause::Congestion)],
              5u);
    EXPECT_EQ(g0.stall[static_cast<size_t>(
                  telemetry::StallCause::RegionConflict)],
              6u);
    EXPECT_EQ(g0.stallTotal(), g0.dispatched - g0.ready);
    EXPECT_EQ(g0.blocked_attempts, 2u);

    EXPECT_EQ(rec.gates[1].stallTotal(), 0u);
    EXPECT_TRUE(rec.gates[1].complete());

    EXPECT_EQ(rec.vertex_busy_cycles[0], 4u);
    EXPECT_EQ(rec.vertex_busy_cycles[1], 0u);
    EXPECT_EQ(rec.vertex_busy_cycles[2], 4u);
    EXPECT_EQ(rec.heatmapSum(), 8u);
    EXPECT_EQ(rec.makespan, 30u);
}

} // namespace
} // namespace autobraid
