/**
 * @file
 * Tests for circuit statistics and the teleportation communication
 * mode (early channel release): stats match known circuit shapes, and
 * teleport schedules are legal, at least as fast as braiding, and
 * release channels early.
 */

#include <gtest/gtest.h>

#include "circuit/stats.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "sched/validator.hpp"

namespace autobraid {
namespace {

TEST(CircuitStats, BvShape)
{
    // BV: zero CX parallelism (paper Fig. 6).
    const auto stats = analyzeCircuit(gen::make("bv:20"));
    EXPECT_EQ(stats.num_qubits, 20);
    EXPECT_EQ(stats.max_cx_parallelism, 1u);
    EXPECT_DOUBLE_EQ(stats.avg_cx_parallelism, 1.0);
    EXPECT_EQ(stats.two_qubit_gates, 19u);
    EXPECT_EQ(stats.kind_histogram.at(GateKind::H), 40u);
}

TEST(CircuitStats, IsingShape)
{
    // Ising: ~n/2 simultaneous CX (paper Fig. 7), degree <= 2.
    const auto stats = analyzeCircuit(gen::make("im:20:1"));
    EXPECT_GE(stats.max_cx_parallelism, 9u);
    EXPECT_EQ(stats.coupling_max_degree, 2);
}

TEST(CircuitStats, QftShape)
{
    const auto stats = analyzeCircuit(gen::make("qft:10"));
    EXPECT_DOUBLE_EQ(stats.coupling_density, 1.0);
    EXPECT_EQ(stats.kind_histogram.at(GateKind::CX), 90u);
    EXPECT_EQ(stats.t_like_gates, 135u); // 3 RZ per cphase
    EXPECT_EQ(stats.unit_depth,
              gen::make("qft:10").unitDepth());
}

TEST(CircuitStats, MeasurementsCounted)
{
    const auto stats = analyzeCircuit(gen::make("adder:3"));
    EXPECT_EQ(stats.measurements, 4u);
    const std::string text = stats.toString();
    EXPECT_NE(text.find("qubits"), std::string::npos);
    EXPECT_NE(text.find("coupling"), std::string::npos);
}

TEST(Teleport, SchedulesLegallyAndReleasesEarly)
{
    const Circuit circuit = gen::make("qft:12");
    CompileOptions opt;
    opt.policy = SchedulerPolicy::AutobraidSP;
    opt.channel_hold_cycles = 2;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    EXPECT_EQ(report.result.gates_scheduled, circuit.size());
    const Grid grid = Grid::forQubits(circuit.numQubits());
    const auto v = validateSchedule(circuit, report.result, opt.cost,
                                    &grid);
    EXPECT_TRUE(v.ok) << v.toString();
    // Braid entries release their channels 2 cycles in.
    bool saw_braid = false;
    for (const TraceEntry &e : report.result.trace) {
        if (e.path.empty() || e.gate == kNoGate)
            continue;
        saw_braid = true;
        EXPECT_EQ(e.channel_release, e.start + 2);
        EXPECT_GT(e.finish, e.channel_release);
    }
    EXPECT_TRUE(saw_braid);
}

TEST(Teleport, BraidModeReleasesAtFinish)
{
    // Without teleportation (hold = 0), a braid owns its channel for
    // the gate's whole duration: release coincides with finish.
    const Circuit circuit = gen::make("qft:12");
    CompileOptions opt;
    opt.policy = SchedulerPolicy::AutobraidSP;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    bool saw_braid = false;
    for (const TraceEntry &e : report.result.trace) {
        if (e.path.empty() || e.gate == kNoGate)
            continue;
        saw_braid = true;
        EXPECT_EQ(e.channel_release, e.finish);
    }
    EXPECT_TRUE(saw_braid);
}

TEST(Teleport, NeverSlowerThanBraiding)
{
    for (const char *spec : {"qft:16", "qaoa:16:2", "im:16:2"}) {
        const Circuit circuit = gen::make(spec);
        CompileOptions braid;
        braid.policy = SchedulerPolicy::AutobraidSP;
        CompileOptions tele = braid;
        tele.channel_hold_cycles = 2;
        const auto rb = compileCircuit(circuit, braid);
        const auto rt = compileCircuit(circuit, tele);
        EXPECT_LE(rt.result.makespan, rb.result.makespan) << spec;
        EXPECT_GE(rt.result.makespan, rt.critical_path) << spec;
    }
}

TEST(Teleport, HoldLargerThanDurationClampsToBraiding)
{
    const Circuit circuit = gen::make("ghz:9");
    CompileOptions braid;
    CompileOptions huge = braid;
    huge.channel_hold_cycles = 1'000'000;
    const auto rb = compileCircuit(circuit, braid);
    const auto rh = compileCircuit(circuit, huge);
    EXPECT_EQ(rb.result.makespan, rh.result.makespan);
}

TEST(Teleport, UtilizationDropsWithEarlyRelease)
{
    const Circuit circuit = gen::make("qaoa:36:4");
    CompileOptions braid;
    CompileOptions tele = braid;
    tele.channel_hold_cycles = 2;
    const auto rb = compileCircuit(circuit, braid);
    const auto rt = compileCircuit(circuit, tele);
    EXPECT_LT(rt.result.avg_utilization,
              rb.result.avg_utilization);
}

} // namespace
} // namespace autobraid
