/**
 * @file
 * Lattice-surgery backend tests: the cost-model windows, backend/policy
 * CLI-name round-trips and strict parse errors, the merge-region
 * semantics of LatticeSurgeryFinder, end-to-end surgery
 * compiles through the validator (including defect tolerance and
 * determinism).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "lattice/defects.hpp"
#include "sched/validator.hpp"
#include "surgery/surgery_model.hpp"
#include "testing/differential.hpp"

namespace autobraid {
namespace {

// --------------------------------------------------------------------
// Cost model: lattice-surgery windows
// --------------------------------------------------------------------

TEST(SurgeryCost, MergeSplitWindows)
{
    CostModel cost;
    cost.distance = 33;
    EXPECT_EQ(cost.cxCycles(), 68u);   // braid: 2d + 2
    EXPECT_EQ(cost.lsCxCycles(), 66u); // merge + split: 2d
    EXPECT_EQ(cost.lsSwapCycles(), 3 * cost.lsCxCycles());
    // The LS CX is strictly shorter than the braid CX for every d.
    for (int d : {3, 5, 17, 33})
    {
        cost.distance = d;
        EXPECT_LT(cost.lsCxCycles(), cost.cxCycles()) << d;
    }
}

// --------------------------------------------------------------------
// Backend / policy names (CLI round-trips and strict parsing)
// --------------------------------------------------------------------

TEST(BackendNames, RoundTripAndAliases)
{
    for (SchedulerBackend b : {SchedulerBackend::Braiding,
                               SchedulerBackend::LatticeSurgery}) {
        EXPECT_EQ(parseBackendName(backendCliName(b)), b);
        EXPECT_EQ(parseBackendName(backendName(b)), b);
    }
    EXPECT_STREQ(backendName(SchedulerBackend::Braiding), "braiding");
    EXPECT_STREQ(backendName(SchedulerBackend::LatticeSurgery),
                 "lattice-surgery");
    EXPECT_STREQ(backendCliName(SchedulerBackend::LatticeSurgery),
                 "surgery");
    EXPECT_EQ(parseBackendName("surgery"),
              SchedulerBackend::LatticeSurgery);
}

TEST(BackendNames, UnknownBackendRejectedWithValidList)
{
    try {
        parseBackendName("teleport");
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("teleport"), std::string::npos);
        EXPECT_NE(msg.find("braiding"), std::string::npos);
        EXPECT_NE(msg.find("surgery"), std::string::npos);
    }
    EXPECT_THROW(parseBackendName(""), UserError);
}

TEST(PolicyNames, RoundTripAndStrictParsing)
{
    for (SchedulerPolicy p : {SchedulerPolicy::Baseline,
                              SchedulerPolicy::AutobraidSP,
                              SchedulerPolicy::AutobraidFull})
        EXPECT_EQ(parsePolicyName(policyCliName(p)), p);
    EXPECT_EQ(parsePolicyName("full"), SchedulerPolicy::AutobraidFull);
    try {
        parsePolicyName("fastest");
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("fastest"), std::string::npos);
        EXPECT_NE(msg.find("baseline"), std::string::npos);
        EXPECT_NE(msg.find("sp"), std::string::npos);
        EXPECT_NE(msg.find("full"), std::string::npos);
    }
}

// --------------------------------------------------------------------
// Merge-region semantics of the surgery finder
// --------------------------------------------------------------------

CompileOptions
surgeryOptions()
{
    CompileOptions opt;
    opt.backend = SchedulerBackend::LatticeSurgery;
    opt.record_trace = true;
    return opt;
}

TEST(SurgeryModel, RegionCoversCornersAndBus)
{
    const Grid grid(2, 2);
    LatticeSurgeryFinder finder(grid, {});
    const std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{1, 1})};
    const BlockedBitset blocked = noBlockedVertices(grid);
    const RoutingOutcome out = finder.findPaths(tasks, blocked);
    ASSERT_EQ(out.routed.size(), 1u);
    EXPECT_TRUE(out.failed.empty());
    EXPECT_EQ(out.ratio(), 1.0);

    const std::vector<VertexId> &region =
        out.routed[0].second.vertices;
    // Every corner of both operand tiles is in the region.
    for (const Cell &cell : {Cell{0, 0}, Cell{1, 1}})
        for (VertexId v : grid.cornerIds(cell))
            EXPECT_NE(std::find(region.begin(), region.end(), v),
                      region.end())
                << "corner " << v << " missing";
    // No duplicates: the region is a set.
    for (size_t i = 0; i < region.size(); ++i)
        for (size_t j = i + 1; j < region.size(); ++j)
            EXPECT_NE(region[i], region[j]);
}

TEST(SurgeryModel, ConcurrentRegionsAreDisjoint)
{
    // Two gates sharing tile (0,1): the second merge must wait.
    const Grid grid(2, 2);
    LatticeSurgeryFinder finder(grid, {});
    std::vector<CxTask> tasks{CxTask::make(0, Cell{0, 0}, Cell{0, 1}),
                              CxTask::make(1, Cell{0, 1}, Cell{1, 1})};
    tasks[0].priority = 10; // routed first
    const BlockedBitset blocked = noBlockedVertices(grid);
    const RoutingOutcome out = finder.findPaths(tasks, blocked);
    ASSERT_EQ(out.routed.size(), 1u);
    EXPECT_EQ(out.routed[0].first, 0u);
    ASSERT_EQ(out.failed.size(), 1u);
    EXPECT_EQ(out.failed[0], 1u);
    EXPECT_EQ(out.ratio(), 0.5);
}

TEST(SurgeryModel, DeadCornersExcludedFromRegions)
{
    const Grid grid(2, 2);
    // Kill one corner of each operand tile; regions must route around
    // and never contain a dead vertex.
    const std::vector<VertexId> dead{grid.vid(Vertex{0, 0}),
                                     grid.vid(Vertex{2, 2})};
    LatticeSurgeryFinder finder(grid, dead);
    const std::vector<CxTask> tasks{
        CxTask::make(0, Cell{0, 0}, Cell{1, 1})};
    const BlockedBitset blocked = noBlockedVertices(grid);
    const RoutingOutcome out = finder.findPaths(tasks, blocked);
    ASSERT_EQ(out.routed.size(), 1u);
    for (VertexId v : out.routed[0].second.vertices)
        for (VertexId d : dead)
            EXPECT_NE(v, d);
}

TEST(SurgeryModel, DurationsAndHold)
{
    CostModel cost;
    cost.distance = 5;
    Circuit c(2, "durations");
    c.cx(0, 1);
    c.swap(0, 1);
    c.h(0);
    const auto surgery = [&cost](const Gate &g) {
        return backendGateDuration(cost, SchedulerBackend::LatticeSurgery,
                                   g);
    };
    EXPECT_EQ(surgery(c.gate(0)), cost.lsCxCycles());
    EXPECT_EQ(surgery(c.gate(1)), cost.lsSwapCycles());
    EXPECT_EQ(surgery(c.gate(2)), cost.duration(c.gate(2)));

    // Merge regions are held for the whole window, never released
    // early by teleport-style channel holds.
    CompileOptions opt = surgeryOptions();
    opt.channel_hold_cycles = 2;
    const CompileReport report = compileCircuit(gen::make("qft:6"), opt);
    ASSERT_TRUE(report.result.valid);
    size_t regions = 0;
    for (const TraceEntry &e : report.result.trace) {
        if (e.path.vertices.empty())
            continue;
        ++regions;
        EXPECT_EQ(e.channel_release, e.finish) << "gate " << e.gate;
    }
    EXPECT_GT(regions, 0u);
}

// --------------------------------------------------------------------
// End-to-end surgery compiles
// --------------------------------------------------------------------

TEST(SurgeryCompile, ValidSchedulesAcrossBenchmarks)
{
    for (const char *spec : {"qft:9", "ghz:8", "adder:4", "im:9:2"}) {
        const Circuit c = gen::make(spec);
        const CompileOptions opt = surgeryOptions();
        const CompileReport report = compileCircuit(c, opt);
        EXPECT_EQ(report.backend, SchedulerBackend::LatticeSurgery)
            << spec;
        EXPECT_EQ(report.result.backend,
                  SchedulerBackend::LatticeSurgery)
            << spec;
        EXPECT_TRUE(report.result.valid) << spec;
        EXPECT_FALSE(report.used_maslov) << spec;
        EXPECT_EQ(report.result.gates_scheduled, c.size()) << spec;
        EXPECT_EQ(report.result.swaps_inserted, 0u) << spec;
        EXPECT_GE(report.result.makespan, report.critical_path)
            << spec;
        const Grid grid = Grid::forQubits(c.numQubits());
        const ValidationReport vr =
            validateSchedule(c, report.result, opt.cost, &grid);
        EXPECT_TRUE(vr.ok) << spec << "\n" << vr.toString();
    }
}

TEST(SurgeryCompile, ToleratesLatticeDefects)
{
    const Circuit c = gen::make("qft:9");
    CompileOptions opt = surgeryOptions();
    const Grid grid = Grid::forQubits(c.numQubits());
    Rng rng(opt.seed ^ 0xdefecu);
    opt.dead_vertices =
        DefectMap::random(grid, 3, rng).deadVertices();
    const CompileReport report = compileCircuit(c, opt);
    EXPECT_TRUE(report.result.valid);
    EXPECT_EQ(report.result.gates_scheduled, c.size());
    const ValidationReport vr =
        validateSchedule(c, report.result, opt.cost, &grid);
    EXPECT_TRUE(vr.ok) << vr.toString();
    // Regions never contain dead vertices.
    for (const TraceEntry &e : report.result.trace)
        for (VertexId v : e.path.vertices)
            for (VertexId d : opt.dead_vertices)
                EXPECT_NE(v, d);
}

TEST(SurgeryCompile, DeterministicMetricsSummary)
{
    const Circuit c = gen::make("qft:9");
    const CompileReport a = compileCircuit(c, surgeryOptions());
    const CompileReport b = compileCircuit(c, surgeryOptions());
    EXPECT_EQ(a.metricsSummary(), b.metricsSummary());
    EXPECT_NE(a.metricsSummary().find("backend=lattice-surgery"),
              std::string::npos);

    // The braiding summary differs only where it should: same
    // circuit, different backend tag and timings.
    CompileOptions braid;
    braid.record_trace = true;
    const CompileReport br = compileCircuit(c, braid);
    EXPECT_NE(br.metricsSummary().find("backend=braiding"),
              std::string::npos);
}

} // namespace
} // namespace autobraid
