/**
 * @file
 * Unit tests for the scheduler layer: event queue, policies, the
 * layout optimizer (paper Fig. 15 scenario), the Maslov swap
 * network, the braid scheduler itself and its run limit, and the
 * pipeline facade.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/text.hpp"
#include "common/rng.hpp"
#include "compiler/driver.hpp"
#include "gen/ising.hpp"
#include "gen/qft.hpp"
#include "gen/registry.hpp"
#include "lattice/defects.hpp"
#include "layout_reference.hpp"
#include "place/linear.hpp"
#include "sched/event_queue.hpp"
#include "sched/layout_optimizer.hpp"
#include "sched/maslov.hpp"
#include "sched/schedule_export.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"
#include "testing/differential.hpp"

namespace autobraid {
namespace {

TEST(EventQueue, OrderingAndBatching)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_THROW(q.nextTime(), InternalError);
    q.push(Event{30, Event::Kind::GateFinish, 1});
    q.push(Event{10, Event::Kind::GateFinish, 2});
    q.push(Event{10, Event::Kind::SwapFinish, 3});
    q.push(Event{20, Event::Kind::GateFinish, 4});
    EXPECT_EQ(q.nextTime(), 10u);
    const auto batch = q.popBatch();
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(q.nextTime(), 20u);
    q.popBatch();
    q.popBatch();
    EXPECT_TRUE(q.empty());
}

TEST(Policy, Names)
{
    EXPECT_STREQ(policyName(SchedulerPolicy::Baseline), "GP w. initM");
    EXPECT_STREQ(policyName(SchedulerPolicy::AutobraidSP),
                 "autobraid-sp");
    EXPECT_STREQ(policyName(SchedulerPolicy::AutobraidFull),
                 "autobraid-full");
}

TEST(Policy, BaselinePlacementHasNoLlgTuning)
{
    SchedulerConfig cfg;
    const auto base = cfg.placementFor(SchedulerPolicy::Baseline);
    EXPECT_TRUE(base.use_partitioner);
    EXPECT_FALSE(base.use_annealer);
    EXPECT_FALSE(base.use_linear_special);
    const auto ours = cfg.placementFor(SchedulerPolicy::AutobraidSP);
    EXPECT_TRUE(ours.use_annealer);
}

TEST(SwapNetwork, LinePositions)
{
    Grid g(3, 3);
    SwapNetwork net(g);
    EXPECT_EQ(net.lineCells().size(), 9u);
    // Snake: row 0 L->R, row 1 R->L.
    EXPECT_EQ(net.posOf(g.cid(Cell{0, 2})), 2);
    EXPECT_EQ(net.posOf(g.cid(Cell{1, 2})), 3);
    EXPECT_TRUE(net.adjacentInLine(g.cid(Cell{0, 2}),
                                   g.cid(Cell{1, 2})));
    EXPECT_FALSE(net.adjacentInLine(g.cid(Cell{0, 0}),
                                    g.cid(Cell{1, 0})));
}

TEST(SwapNetwork, PhasePairsParityAndExclusion)
{
    Grid g(2, 2);
    SwapNetwork net(g);
    Placement p(g, 4);
    std::vector<uint8_t> excluded(4, 0);
    auto even = net.phasePairs(0, p, excluded);
    EXPECT_EQ(even.size(), 2u);
    auto odd = net.phasePairs(1, p, excluded);
    EXPECT_EQ(odd.size(), 1u);
    excluded[0] = 1;
    auto filtered = net.phasePairs(0, p, excluded);
    EXPECT_EQ(filtered.size(), 1u);
    EXPECT_THROW(net.phasePairs(2, p, excluded), InternalError);
}

TEST(SwapNetwork, PartialOccupancySkipsEmptyTiles)
{
    Grid g(2, 2);
    SwapNetwork net(g);
    Placement p(g, 3); // tile 3 empty
    std::vector<uint8_t> excluded(3, 0);
    for (int parity = 0; parity < 2; ++parity)
        for (const auto &[a, b] : net.phasePairs(parity, p, excluded)) {
            EXPECT_NE(a, kNoQubit);
            EXPECT_NE(b, kNoQubit);
        }
}

TEST(LayoutOptimizer, Fig15CrossingPairsGetSwaps)
{
    // Paper Fig. 15: m pairwise-crossing CX gates; one parallel swap
    // layer makes them executable. Build 4 crossing pairs on one row
    // boundary (the Fig. 9 pattern) and ask for a proposal.
    Grid g(2, 4);
    Placement placement(g, 8);
    // Row 0: qubits 0..3; row 1: qubits 4..7. Crossing pairs:
    // (0,7),(1,6),(2,5),(3,4).
    std::vector<CxTask> failed;
    Circuit c(8);
    for (int i = 0; i < 4; ++i) {
        const GateIdx gidx = c.cx(i, 7 - i);
        failed.push_back(CxTask::make(gidx, placement.cellOf(i),
                                      placement.cellOf(7 - i)));
    }
    StackPathFinder finder(g);
    std::vector<uint8_t> movable(8, 1);
    const auto plan = proposeSwaps(finder, failed, placement,
                                   noBlockedVertices(g), movable);
    EXPECT_GE(plan.size(), 1u);
    for (const PlannedSwap &s : plan) {
        EXPECT_NE(s.a, s.b);
        EXPECT_FALSE(s.path.empty());
        EXPECT_EQ(s.path.validate(g, placement.cellOf(s.a),
                                  placement.cellOf(s.b)),
                  "");
    }
}

TEST(LayoutOptimizer, NoProposalForNonInterfering)
{
    Grid g(8, 8);
    Placement placement(g, 64);
    Circuit c(64);
    std::vector<CxTask> failed;
    const GateIdx g1 = c.cx(0, 1);
    const GateIdx g2 = c.cx(62, 63);
    failed.push_back(CxTask::make(g1, placement.cellOf(0),
                                  placement.cellOf(1)));
    failed.push_back(CxTask::make(g2, placement.cellOf(62),
                                  placement.cellOf(63)));
    StackPathFinder finder(g);
    std::vector<uint8_t> movable(64, 1);
    const auto plan = proposeSwaps(finder, failed, placement,
                                   noBlockedVertices(g), movable);
    EXPECT_TRUE(plan.empty());
}

TEST(LayoutOptimizer, RespectsMovableMask)
{
    Grid g(2, 4);
    Placement placement(g, 8);
    Circuit c(8);
    std::vector<CxTask> failed;
    for (int i = 0; i < 4; ++i) {
        const GateIdx gidx = c.cx(i, 7 - i);
        failed.push_back(CxTask::make(gidx, placement.cellOf(i),
                                      placement.cellOf(7 - i)));
    }
    StackPathFinder finder(g);
    std::vector<uint8_t> movable(8, 0); // nothing may move
    const auto plan = proposeSwaps(finder, failed, placement,
                                   noBlockedVertices(g), movable);
    EXPECT_TRUE(plan.empty());
}

TEST(LayoutOptimizer, MatchesReference)
{
    // The graph-based optimizer against the one that recounted every
    // pair (layout_reference.hpp), swap by swap. Operand tiles are
    // pairwise disjoint, as ready CX gates' are. Half the instances
    // pair each tile with a near one, so degrees and areas tie often;
    // blocked vertices make some tentative swaps fail the route test.
    Rng rng(20211018);
    size_t swaps = 0, proposals = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const Grid g(rng.intIn(3, 16), rng.intIn(3, 16));
        const int ncells = g.numCells();
        std::vector<CellId> layout(static_cast<size_t>(ncells));
        for (CellId c = 0; c < ncells; ++c)
            layout[static_cast<size_t>(c)] = c;
        rng.shuffle(layout);
        Placement placement(g, ncells);
        placement.assign(layout);

        std::vector<uint8_t> taken(static_cast<size_t>(ncells), 0);
        const bool local = rng.chance(0.5);
        const int want = rng.intIn(2, std::min(ncells / 2, 40));
        std::vector<CxTask> failed;
        for (int tries = 0;
             static_cast<int>(failed.size()) < want && tries < 4 * want;
             ++tries) {
            const auto a = static_cast<CellId>(rng.index(
                static_cast<size_t>(ncells)));
            CellId b = static_cast<CellId>(
                rng.index(static_cast<size_t>(ncells)));
            if (local) {
                const Cell ca = g.cell(a);
                const Cell cb{
                    std::clamp(ca.r + rng.intIn(-2, 2), 0, g.rows() - 1),
                    std::clamp(ca.c + rng.intIn(-2, 2), 0, g.cols() - 1)};
                b = g.cid(cb);
            }
            if (a == b || taken[static_cast<size_t>(a)] ||
                taken[static_cast<size_t>(b)])
                continue;
            taken[static_cast<size_t>(a)] = 1;
            taken[static_cast<size_t>(b)] = 1;
            failed.push_back(CxTask::make(
                static_cast<GateIdx>(failed.size()), g.cell(a),
                g.cell(b)));
        }

        std::vector<uint8_t> movable(static_cast<size_t>(ncells), 1);
        const double pinned = rng.chance(0.5) ? 0.0 : 0.2;
        for (auto &m : movable)
            m = rng.chance(pinned) ? 0 : 1;
        const double density =
            std::array<double, 4>{0.0, 0.05, 0.15, 0.3}[rng.index(4)];
        const BlockedBitset blocked = materializeBlocked(
            g, [&rng, density](VertexId) { return rng.chance(density); });

        reference::LayoutOptimizer ref(g);
        const auto want_plan =
            ref.propose(failed, placement, blocked, movable);
        StackPathFinder finder(g);
        const auto got_plan =
            proposeSwaps(finder, failed, placement, blocked, movable);
        ASSERT_EQ(got_plan.size(), want_plan.size()) << "trial " << trial;
        for (size_t k = 0; k < got_plan.size(); ++k) {
            EXPECT_EQ(got_plan[k].a, want_plan[k].a) << "trial " << trial;
            EXPECT_EQ(got_plan[k].b, want_plan[k].b) << "trial " << trial;
            EXPECT_EQ(got_plan[k].path.vertices,
                      want_plan[k].path.vertices)
                << "trial " << trial;
        }
        swaps += got_plan.size();
        proposals += got_plan.empty() ? 0 : 1;
    }
    // The instances must exercise the optimizer, not just agree on
    // empty plans.
    EXPECT_GT(proposals, 300u);
    EXPECT_GT(swaps, 1000u);
}

SchedulerConfig
tracedConfig(SchedulerPolicy policy)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.record_trace = true;
    return cfg;
}

TEST(Scheduler, SerialChainHitsCriticalPath)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.h(1);
    Grid grid = Grid::forQubits(2);
    const auto cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
    BraidScheduler sched(c, grid, cfg);
    const auto result = sched.run(Placement(grid, 2));
    EXPECT_EQ(result.makespan,
              sched.dag().criticalPath(cfg.cost.durationFn()));
    const ValidationReport v =
        validateSchedule(c, result, cfg.cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
}

TEST(Scheduler, ZeroDurationCircuit)
{
    Circuit c(3);
    for (int i = 0; i < 3; ++i) {
        c.x(i);
        c.z(i);
    }
    Grid grid = Grid::forQubits(3);
    const auto cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
    BraidScheduler sched(c, grid, cfg);
    const auto result = sched.run(Placement(grid, 3));
    EXPECT_EQ(result.makespan, 0u);
    EXPECT_EQ(result.gates_scheduled, 6u);
}

TEST(Scheduler, ParallelCxOverlap)
{
    // Two independent CX gates on a 2x2 grid: both should braid
    // concurrently, so the makespan equals one CX window.
    Circuit c(4);
    c.cx(0, 1);
    c.cx(2, 3);
    Grid grid(2, 2);
    const auto cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
    BraidScheduler sched(c, grid, cfg);
    const auto result = sched.run(Placement(grid, 4));
    EXPECT_EQ(result.makespan, cfg.cost.cxCycles());
    EXPECT_EQ(result.max_concurrent_braids, 2u);
    const ValidationReport v =
        validateSchedule(c, result, cfg.cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
}

TEST(Scheduler, UtilizationCountsOnlyRoutableVertices)
{
    // One CX between adjacent tiles braids through a single shared
    // corner, so the busy integral is exactly 1 vertex * 1 CX window.
    // With two dead vertices the 3x3-vertex grid has 7 routable
    // vertices: both ratios must be 1/7, not 1/9 — dead vertices can
    // never carry a braid and do not belong in the denominator.
    Circuit c(2);
    c.cx(0, 1);
    Grid grid(2, 2);
    SchedulerConfig cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
    cfg.dead_vertices = {grid.vid(Vertex{2, 0}),
                         grid.vid(Vertex{2, 2})};
    BraidScheduler sched(c, grid, cfg);
    const auto result = sched.run(Placement(grid, 2));
    const ValidationReport v =
        validateSchedule(c, result, cfg.cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
    EXPECT_EQ(result.braids_routed, 1u);
    ASSERT_EQ(result.trace.size(), 1u);
    EXPECT_EQ(result.trace[0].path.length(), 1u);
    EXPECT_NEAR(result.peak_utilization, 1.0 / 7.0, 1e-12);
    EXPECT_NEAR(result.avg_utilization, 1.0 / 7.0, 1e-12);
}

TEST(Scheduler, QuietInstantsStillSampleUtilization)
{
    // An H retiring mid-braid (h: d cycles, cx: 2d + 2) creates a
    // dispatch instant where the CX braid still holds its channel but
    // nothing new dispatches. Utilization sampling must run at that
    // instant too — the peak may not skip instants without new braids.
    Circuit c(3);
    c.cx(0, 1);
    c.h(2);
    Grid grid(2, 2);
    const auto cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
    BraidScheduler sched(c, grid, cfg);
    const auto result = sched.run(Placement(grid, 3));
    const ValidationReport v =
        validateSchedule(c, result, cfg.cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
    // Instants: t=0 (both gates) and t=d (H retires, braid in
    // flight). The second is the quiet one.
    EXPECT_EQ(result.dispatch_instants, 2u);
    ASSERT_EQ(result.braids_routed, 1u);
    // Adjacent tiles braid through one shared vertex of the 9.
    EXPECT_NEAR(result.peak_utilization, 1.0 / 9.0, 1e-12);
    EXPECT_LE(result.avg_utilization, result.peak_utilization);
}

TEST(Scheduler, PeakUtilizationMatchesTraceRecount)
{
    // The engine counts the vertices its hold heap keeps; recount them
    // from the trace, where each entry holds its path on [start,
    // channel_release), and require the exact peak: with the layout
    // optimizer, a teleport hold, dead vertices and merge regions.
    struct Case
    {
        const char *spec;
        SchedulerPolicy policy;
        SchedulerBackend backend;
        Cycles channel_hold;
        int defects;
    };
    const Case cases[] = {
        {"qft:16", SchedulerPolicy::AutobraidFull,
         SchedulerBackend::Braiding, 0, 0},
        {"qaoa:16", SchedulerPolicy::AutobraidFull,
         SchedulerBackend::Braiding, 5, 0},
        {"im:16", SchedulerPolicy::Baseline, SchedulerBackend::Braiding,
         0, 2},
        {"qft:12", SchedulerPolicy::AutobraidFull,
         SchedulerBackend::LatticeSurgery, 0, 0},
    };
    for (const Case &k : cases) {
        const Circuit circuit = gen::make(k.spec);
        const Grid grid = Grid::forQubits(circuit.numQubits());
        CompileOptions opt;
        opt.policy = k.policy;
        opt.backend = k.backend;
        opt.channel_hold_cycles = k.channel_hold;
        opt.record_trace = true;
        Rng rng(7);
        opt.dead_vertices =
            DefectMap::random(grid, k.defects, rng).deadVertices();
        ASSERT_EQ(opt.dead_vertices.size(),
                  static_cast<size_t>(k.defects));
        const ScheduleResult r = compileCircuit(circuit, opt).result;
        ASSERT_TRUE(r.valid) << k.spec;
        EXPECT_GT(r.peak_utilization, 0.0) << k.spec;
        EXPECT_EQ(r.peak_utilization,
                  fuzz::tracePeakUtilization(r.trace, grid,
                                             opt.dead_vertices))
            << k.spec;
    }
}

TEST(Scheduler, ChannelHoldEdgeCases)
{
    // channel_hold_cycles semantics: 0 and anything exceeding the CX
    // window both mean "hold for the whole braid"; a shorter hold
    // (teleportation-style) releases the channel early. The trace's
    // channel_release and the vertex-cycles utilization weighting must
    // follow the effective hold exactly.
    Circuit c(2);
    c.cx(0, 1);
    Grid grid(2, 2);
    const Cycles dur = SchedulerConfig{}.cost.cxCycles();
    const std::vector<std::pair<Cycles, Cycles>> cases{
        {0, dur},
        {dur + 100, dur},
        {2, 2},
    };
    for (const auto &[hold, effective] : cases) {
        SchedulerConfig cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
        cfg.channel_hold_cycles = hold;
        BraidScheduler sched(c, grid, cfg);
        const auto result = sched.run(Placement(grid, 2));
        const ValidationReport v =
            validateSchedule(c, result, cfg.cost, &grid);
        EXPECT_TRUE(v.ok) << v.toString();
        ASSERT_EQ(result.trace.size(), 1u) << "hold " << hold;
        const TraceEntry &e = result.trace[0];
        EXPECT_EQ(e.finish - e.start, dur);
        EXPECT_EQ(e.channel_release, e.start + effective)
            << "hold " << hold;
        // The validator's channel-release window rules.
        EXPECT_GE(e.channel_release, e.start);
        EXPECT_LE(e.channel_release, e.finish);
        // 1 path vertex held `effective` of the dur-cycle makespan,
        // over the 9 routable vertices of the 2x2 grid.
        EXPECT_NEAR(result.avg_utilization,
                    static_cast<double>(effective) /
                        (static_cast<double>(dur) * 9.0),
                    1e-12)
            << "hold " << hold;
    }
}

TEST(Scheduler, BaselineLevelSyncIsNeverFasterThanAutobraid)
{
    const Circuit c = gen::makeQft(9);
    Grid grid = Grid::forQubits(9);
    const auto base_cfg = tracedConfig(SchedulerPolicy::Baseline);
    const auto sp_cfg = tracedConfig(SchedulerPolicy::AutobraidSP);
    BraidScheduler base(c, grid, base_cfg);
    BraidScheduler sp(c, grid, sp_cfg);
    const Placement p(grid, 9);
    const auto rb = base.run(p);
    const auto rs = sp.run(p);
    const ValidationReport vb =
        validateSchedule(c, rb, base_cfg.cost, &grid);
    const ValidationReport vs =
        validateSchedule(c, rs, sp_cfg.cost, &grid);
    EXPECT_TRUE(vb.ok) << vb.toString();
    EXPECT_TRUE(vs.ok) << vs.toString();
    EXPECT_GE(rb.makespan, rs.makespan);
}

TEST(Scheduler, RejectsOversizedCircuit)
{
    Circuit c(10);
    c.h(0);
    Grid grid(2, 2);
    SchedulerConfig cfg;
    EXPECT_THROW(BraidScheduler(c, grid, cfg), UserError);
}

TEST(Scheduler, MaslovModeCompletesQft)
{
    const Circuit c = gen::makeQft(9);
    Grid grid = Grid::forQubits(9);
    const auto cfg = tracedConfig(SchedulerPolicy::AutobraidFull);
    BraidScheduler sched(c, grid, cfg);
    std::vector<Qubit> order(9);
    for (Qubit q = 0; q < 9; ++q)
        order[static_cast<size_t>(q)] = q;
    const auto result = sched.runMaslov(snakePlacement(grid, order));
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.gates_scheduled, c.size());
    const ValidationReport v =
        validateSchedule(c, result, cfg.cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
    EXPECT_GT(result.swaps_inserted, 0u);
}

TEST(Scheduler, FullPolicyInsertsSwapsUnderCongestion)
{
    // Adversarial placement of an Ising chain: interleaved so chain
    // neighbours are far apart; the layout optimizer should fire.
    const Circuit c = gen::makeIsing(16, 3);
    Grid grid(4, 4);
    SchedulerConfig cfg = tracedConfig(SchedulerPolicy::AutobraidFull);
    cfg.p_threshold = 0.9;
    BraidScheduler sched(c, grid, cfg);
    // Reversed placement: qubit q at cell 15-q; chain neighbours are
    // still adjacent. Use a shuffled placement instead.
    Placement p(grid, 16);
    Rng rng(11);
    std::vector<CellId> cells(16);
    for (CellId i = 0; i < 16; ++i)
        cells[static_cast<size_t>(i)] = i;
    rng.shuffle(cells);
    p.assign(cells);
    const auto result = sched.run(p);
    EXPECT_EQ(result.gates_scheduled, c.size());
    const ValidationReport v =
        validateSchedule(c, result, cfg.cost, &grid);
    EXPECT_TRUE(v.ok) << v.toString();
}

/** Trace and flight-recording bytes of a finished run. */
std::string
runBytes(const Circuit &c, const Grid &grid, const ScheduleResult &r)
{
    ScheduleExportInfo info;
    info.circuit = &c;
    info.grid = &grid;
    return scheduleToJson(info, r) + r.recording->toJson();
}

TEST(RunLimit, StopsExactlyAtTheUnlimitedMakespan)
{
    // A cutoff of M, the run's own makespan, must stop it (it cannot
    // be strictly shorter); M + 1 must leave every byte unchanged
    // (the lower bound never passes the makespan). A cutoff of the
    // critical path stops the run after its first dispatch instant.
    struct Mode
    {
        SchedulerBackend backend;
        bool maslov;
    };
    const Mode modes[] = {{SchedulerBackend::Braiding, false},
                          {SchedulerBackend::LatticeSurgery, false},
                          {SchedulerBackend::Braiding, true}};
    for (const char *spec : {"qft:12", "qft:24", "qaoa:16:2", "im:40:3",
                             "grover:4", "qpe:6:3", "bv:16", "adder:6"}) {
        const Circuit c = gen::make(spec);
        const Grid grid = Grid::forQubits(c.numQubits());
        std::vector<Qubit> order(static_cast<size_t>(c.numQubits()));
        for (Qubit q = 0; q < c.numQubits(); ++q)
            order[static_cast<size_t>(q)] = q;
        for (const Mode &mode : modes) {
            const std::string label =
                strformat("%s %s%s", spec, backendCliName(mode.backend),
                          mode.maslov ? " maslov" : "");
            SchedulerConfig cfg;
            cfg.backend = mode.backend;
            cfg.record_trace = true;
            cfg.record_lifecycle = true;
            const BraidScheduler sched(c, grid, cfg);
            const Placement start = mode.maslov
                                        ? snakePlacement(grid, order)
                                        : Placement(grid, c.numQubits());
            auto runWith = [&](RunLimit limit) {
                return mode.maslov ? sched.runMaslov(start, limit)
                                   : sched.run(start, limit);
            };
            const ScheduleResult unlimited = runWith({});
            ASSERT_TRUE(unlimited.valid) << label;
            const Cycles m = unlimited.makespan;

            EXPECT_FALSE(runWith({m}).valid) << label;
            const ScheduleResult edge = runWith({m + 1});
            ASSERT_TRUE(edge.valid) << label;
            EXPECT_EQ(edge.makespan, m) << label;
            EXPECT_EQ(runBytes(c, grid, edge),
                      runBytes(c, grid, unlimited))
                << label;

            const Cycles cp = sched.dag().criticalPath(
                backendDurationFn(cfg.cost, mode.backend));
            const ScheduleResult at_cp = runWith({cp});
            EXPECT_FALSE(at_cp.valid) << label;
            EXPECT_EQ(at_cp.dispatch_instants, 1u) << label;
        }
    }
}

TEST(RunLimit, ZeroCutoffIsALimitNotItsAbsence)
{
    // Paulis take 0 cycles, so this run's makespan is 0. An incumbent
    // of makespan 0 cannot be beaten: a cutoff of 0 must stop the run,
    // while the default limit lets it finish.
    Circuit c(2);
    c.x(0);
    c.z(1);
    const Grid grid = Grid::forQubits(2);
    const BraidScheduler sched(c, grid,
                               tracedConfig(SchedulerPolicy::AutobraidFull));
    const ScheduleResult unlimited = sched.run(Placement(grid, 2));
    ASSERT_TRUE(unlimited.valid);
    EXPECT_EQ(unlimited.makespan, 0u);
    EXPECT_FALSE(sched.run(Placement(grid, 2), RunLimit{0}).valid);
}

TEST(Pipeline, PoliciesRankAsInPaper)
{
    const Circuit c = gen::makeQft(16);
    CompileOptions base;
    base.policy = SchedulerPolicy::Baseline;
    CompileOptions sp;
    sp.policy = SchedulerPolicy::AutobraidSP;
    CompileOptions full;
    full.policy = SchedulerPolicy::AutobraidFull;
    const auto rb = compileCircuit(c, base);
    const auto rs = compileCircuit(c, sp);
    const auto rf = compileCircuit(c, full);
    // CP <= full <= sp (full falls back to sp's schedule) and
    // full <= baseline.
    EXPECT_LE(rf.critical_path, rf.result.makespan);
    EXPECT_LE(rf.result.makespan, rs.result.makespan);
    EXPECT_LE(rf.result.makespan, rb.result.makespan);
    EXPECT_EQ(rb.critical_path, rf.critical_path);
    EXPECT_GT(rf.cpRatio(), 0.99);
}

TEST(Pipeline, ReportFieldsPopulated)
{
    const Circuit c = gen::makeIsing(10, 2);
    CompileOptions opt;
    const auto rep = compileCircuit(c, opt);
    EXPECT_EQ(rep.num_qubits, 10);
    EXPECT_EQ(rep.grid_side, 4);
    EXPECT_GT(rep.critical_path, 0u);
    EXPECT_GT(rep.micros(opt.cost), 0.0);
    EXPECT_GE(rep.total_seconds, rep.placement_seconds);
    EXPECT_EQ(rep.circuit_name, "im10");
}

TEST(Pipeline, IsingHitsCriticalPath)
{
    // The paper's IM rows: autobraid-full exactly matches CP.
    const Circuit c = gen::makeIsing(36, 2);
    CompileOptions opt;
    opt.policy = SchedulerPolicy::AutobraidFull;
    const auto rep = compileCircuit(c, opt);
    EXPECT_EQ(rep.result.makespan, rep.critical_path);
}

TEST(Pipeline, SweepPThresholds)
{
    const Circuit c = gen::makeQft(9);
    CompileOptions opt;
    const auto sweep =
        sweepPThreshold(c, opt, {0.0, 0.3, 0.6});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_DOUBLE_EQ(sweep[0].first, 0.0);
    for (const auto &[p, rep] : sweep)
        EXPECT_GT(rep.result.makespan, 0u);
}

TEST(Pipeline, PhysicalQubitBudget)
{
    const Circuit c = gen::makeQft(9);
    CompileOptions opt;
    const auto rep = compileCircuit(c, opt);
    SurfaceCodeParams params;
    EXPECT_EQ(physicalQubits(rep, params, 33),
              9L * 2 * 34 * 34);
}

} // namespace
} // namespace autobraid
