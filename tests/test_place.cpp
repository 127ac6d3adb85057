/**
 * @file
 * Unit tests for placement: the Placement type, the recursive-bisection
 * partitioner, the LLG annealer, snake layouts, and the stage-2 initial
 * placement pipeline.
 */

#include <gtest/gtest.h>

#include <set>

#include "circuit/coupling.hpp"
#include "common/error.hpp"
#include "gen/ising.hpp"
#include "gen/qft.hpp"
#include "gen/registry.hpp"
#include "llg_reference.hpp"
#include "place/initial.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace {

TEST(Placement, IdentityLayout)
{
    Grid g(3, 3);
    Placement p(g, 7);
    EXPECT_EQ(p.numQubits(), 7);
    for (Qubit q = 0; q < 7; ++q) {
        EXPECT_EQ(p.cellIdOf(q), q);
        EXPECT_EQ(p.qubitAt(q), q);
    }
    EXPECT_EQ(p.qubitAt(8), kNoQubit);
    p.check();
}

TEST(Placement, RejectsOverflow)
{
    Grid g(2, 2);
    EXPECT_THROW(Placement(g, 5), UserError);
    EXPECT_THROW(Placement(g, 0), UserError);
}

TEST(Placement, SwapAndMove)
{
    Grid g(3, 3);
    Placement p(g, 4);
    p.swapQubits(0, 3);
    EXPECT_EQ(p.cellIdOf(0), 3);
    EXPECT_EQ(p.cellIdOf(3), 0);
    EXPECT_EQ(p.qubitAt(0), 3);
    p.check();

    p.moveTo(1, 8);
    EXPECT_EQ(p.cellIdOf(1), 8);
    EXPECT_EQ(p.qubitAt(1), kNoQubit);
    p.check();
    EXPECT_THROW(p.moveTo(2, 8), InternalError); // occupied
}

TEST(Placement, Assign)
{
    Grid g(2, 2);
    Placement p(g, 3);
    p.assign({2, 0, 3});
    EXPECT_EQ(p.cellIdOf(0), 2);
    EXPECT_EQ(p.qubitAt(3), 2);
    p.check();
    EXPECT_THROW(p.assign({0, 0, 1}), UserError); // duplicate
    EXPECT_THROW(p.assign({0, 1}), UserError);    // wrong size
    EXPECT_THROW(p.assign({0, 1, 9}), UserError); // out of range
}

TEST(Placement, TaskConstruction)
{
    Grid g(3, 3);
    Placement p(g, 4);
    Circuit c(4);
    c.cx(0, 3);
    c.h(1);
    const auto tasks = p.tasks(c, {0});
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks[0].a, g.cell(0));
    EXPECT_EQ(tasks[0].b, g.cell(3));
    EXPECT_THROW(p.tasks(c, {1}), InternalError); // h needs no braid
}

TEST(Partitioner, BisectBalancedAndExact)
{
    // Two cliques joined by one edge: the bisection should separate
    // them.
    CouplingGraph g(8);
    for (Qubit a = 0; a < 4; ++a)
        for (Qubit b = a + 1; b < 4; ++b)
            g.addEdge(a, b, 10);
    for (Qubit a = 4; a < 8; ++a)
        for (Qubit b = a + 1; b < 8; ++b)
            g.addEdge(a, b, 10);
    g.addEdge(3, 4, 1);

    Rng rng(5);
    std::vector<Qubit> nodes{0, 1, 2, 3, 4, 5, 6, 7};
    const auto [left, right] = bisect(g, nodes, 4, rng);
    EXPECT_EQ(left.size(), 4u);
    EXPECT_EQ(right.size(), 4u);
    const std::set<Qubit> ls(left.begin(), left.end());
    EXPECT_TRUE(ls == std::set<Qubit>({0, 1, 2, 3}) ||
                ls == std::set<Qubit>({4, 5, 6, 7}));
}

TEST(Partitioner, BisectEdgeCases)
{
    CouplingGraph g(4);
    Rng rng(1);
    std::vector<Qubit> nodes{0, 1, 2, 3};
    EXPECT_TRUE(bisect(g, nodes, 0, rng).first.empty());
    EXPECT_EQ(bisect(g, nodes, 4, rng).first.size(), 4u);
    EXPECT_THROW(bisect(g, nodes, 5, rng), InternalError);
}

TEST(Partitioner, PlacementIsInjectiveAndLocal)
{
    // A chain coupling graph: the partition placement should keep
    // average CX cell distance small.
    const Circuit chain = gen::makeIsing(25, 1);
    const CouplingGraph g(chain);
    Grid grid(5, 5);
    Rng rng(2);
    Placement p = partitionPlacement(g, grid, rng);
    p.check();

    double total = 0;
    long edges = 0;
    for (Qubit q = 0; q < 25; ++q) {
        for (const auto &[n, w] : g.neighbors(q)) {
            if (n < q)
                continue;
            total += p.cellOf(q).dist(p.cellOf(n));
            ++edges;
        }
    }
    // Random placement averages ~3.3 cell distance on 5x5; demand
    // locality well below that.
    EXPECT_LT(total / static_cast<double>(edges), 2.5);
}

TEST(Partitioner, LeafCellsCoarsensArrangement)
{
    // METIS-style 4-tile leaves still confine the chain to good
    // blocks: placements stay valid and reasonably local (well below
    // the ~3.3 random-placement average on a 6x6 grid), even though
    // qubits inside a leaf are assigned arbitrarily.
    const Circuit chain = gen::makeIsing(36, 1);
    const CouplingGraph g(chain);
    Grid grid(6, 6);
    auto avg_dist = [&g](const Placement &p) {
        double total = 0;
        long edges = 0;
        for (Qubit q = 0; q < 36; ++q) {
            for (const auto &[n, w] : g.neighbors(q)) {
                if (n < q)
                    continue;
                total += p.cellOf(q).dist(p.cellOf(n));
                ++edges;
            }
        }
        return total / static_cast<double>(edges);
    };
    Rng r2(8);
    const Placement pc = partitionPlacement(g, grid, r2, 4);
    pc.check();
    EXPECT_LT(avg_dist(pc), 2.8);

    // Degenerate: a leaf covering the whole grid is identity-order.
    Rng r3(8);
    const Placement pw = partitionPlacement(g, grid, r3, grid.numCells());
    for (Qubit q = 0; q < 36; ++q)
        EXPECT_EQ(pw.cellIdOf(q), q);
}

TEST(Annealer, ObjectiveNonNegativeAndDecreases)
{
    const Circuit c = gen::makeQft(16);
    Grid grid(4, 4);
    Placement identity(grid, 16);
    const long before = llgObjective(c, identity);
    EXPECT_GE(before, 0);

    Rng rng(3);
    Placement annealed = annealPlacement(c, identity, rng);
    annealed.check();
    EXPECT_LE(llgObjective(c, annealed), before);
}

TEST(Annealer, Table1MetricImproves)
{
    // Table 1: LLG-aware layout reduces the count of size>3 LLGs.
    const Circuit c = gen::makeQft(16);
    Grid grid(4, 4);
    Placement identity(grid, 16);
    Rng rng(4);
    const Placement annealed = annealPlacement(c, identity, rng);
    EXPECT_LE(countOversizeLlgs(c, annealed),
              countOversizeLlgs(c, identity));
}

/** One anneal's result: its cells and its proposal/accept counters. */
struct AnnealTrace
{
    std::vector<CellId> cells;
    long long proposals = 0;
    long long accepts = 0;
};

template <typename Anneal>
AnnealTrace
traceAnneal(Anneal anneal, const Circuit &circuit, const Grid &grid,
            uint64_t seed)
{
    telemetry::Telemetry sink;
    AnnealTrace trace;
    {
        telemetry::TelemetryScope scope(&sink);
        Rng rng(seed);
        const Placement out =
            anneal(circuit, Placement(grid, circuit.numQubits()), rng);
        for (Qubit q = 0; q < out.numQubits(); ++q)
            trace.cells.push_back(out.cellIdOf(q));
    }
    trace.proposals = sink.metrics().counter("place.anneal_proposals");
    trace.accepts = sink.metrics().counter("place.anneal_accepts");
    return trace;
}

TEST(Annealer, MatchesReferenceTrajectory)
{
    // Same RNG draws, same integer costs, same accept decisions: the
    // patching annealer must retrace the reference exactly.
    struct Case
    {
        const char *spec;
        int side;       ///< 0: Grid::forQubits; else a side x side grid
        size_t largest; ///< gates in the largest sampled set; 0: any
    };
    const Case cases[] = {
        {"qft:16", 0, 0},         {"qpe:6:3", 0, 0},
        {"randct:9:200:1", 0, 0}, {"adder:8", 0, 0},
        {"qaoa:16:2", 0, 0},
        {"qpe:6:3", 4, 0}, // seven spare tiles: the moveTo path runs
        // Every set has at most three gates, so none is merged. On 4
        // qubits, many swaps exchange the two operands of one gate.
        {"revlib:rd32-v0", 0, 1},
        {"grover:6:1:75", 0, 2},
        // Sets of more than 64 gates, on a 3-regular coupling graph.
        {"qaoa:140:1", 0, 70},
    };
    for (const Case &c : cases) {
        const Circuit circuit = gen::make(c.spec);
        if (c.largest > 0) {
            size_t largest = 0;
            for (const auto &set : concurrentCxSets(circuit, kAnnealMaxSets))
                largest = std::max(largest, set.size());
            EXPECT_EQ(largest, c.largest) << c.spec;
            EXPECT_FALSE(CouplingGraph(circuit).isMaxDegreeTwo()) << c.spec;
        }
        const Grid grid = c.side > 0
                              ? Grid(c.side, c.side)
                              : Grid::forQubits(circuit.numQubits());
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message() << c.spec << " on "
                                            << grid.rows() << "x"
                                            << grid.cols() << ", seed "
                                            << seed);
            const AnnealTrace want = traceAnneal(
                reference::annealPlacement, circuit, grid, seed);
            const AnnealTrace got =
                traceAnneal(annealPlacement, circuit, grid, seed);
            EXPECT_EQ(got.cells, want.cells);
            EXPECT_GT(want.proposals, 0);
            EXPECT_EQ(got.proposals, want.proposals);
            EXPECT_EQ(got.accepts, want.accepts);
        }
    }
}

TEST(Annealer, ObjectivesMatchReference)
{
    const Circuit circuit = gen::make("qft:16");
    const Grid grid = Grid::forQubits(circuit.numQubits());
    const Placement identity(grid, circuit.numQubits());
    for (size_t max_sets : {size_t{0}, size_t{16}, kAnnealMaxSets}) {
        long want = 0;
        for (const auto &set : reference::sampleSets(circuit, max_sets))
            want += reference::setCost(circuit, identity, set);
        EXPECT_EQ(llgObjective(circuit, identity, max_sets), want)
            << "max_sets " << max_sets;
    }
    long oversize = 0;
    for (const auto &set : reference::concurrentCxSets(circuit))
        oversize += static_cast<long>(
            reference::llgStats(identity.tasks(circuit, set)).oversize);
    EXPECT_EQ(countOversizeLlgs(circuit, identity), oversize);
}

TEST(Layers, OnePassMatchesReference)
{
    // Every caller's layers come from one depth pass: its ASAP layers
    // and its sampled concurrent sets must equal the layer-by-layer
    // reference's, in the same order.
    std::vector<Circuit> circuits;
    for (const char *spec : {"qft:16", "qft:40", "qpe:6:3",
                             "randct:9:200:1", "adder:8", "qaoa:16:2"})
        circuits.push_back(gen::make(spec));
    Circuit no_cx(3);
    no_cx.h(0);
    no_cx.h(2);
    circuits.push_back(no_cx);
    circuits.emplace_back(2);
    for (const Circuit &circuit : circuits) {
        SCOPED_TRACE(testing::Message()
                     << circuit.size() << " gates on "
                     << circuit.numQubits() << " qubits");
        EXPECT_EQ(asapLayers(circuit), reference::asapLayers(circuit));
        for (size_t max_sets :
             {size_t{0}, size_t{1}, size_t{7}, size_t{16}, kAnnealMaxSets})
            EXPECT_EQ(concurrentCxSets(circuit, max_sets),
                      reference::sampleSets(circuit, max_sets))
                << "max_sets " << max_sets;
    }
}

TEST(Annealer, NoCxCircuitIsNoop)
{
    Circuit c(4);
    c.h(0);
    c.h(1);
    Grid grid(2, 2);
    Rng rng(5);
    const Placement p =
        annealPlacement(c, Placement(grid, 4), rng);
    for (Qubit q = 0; q < 4; ++q)
        EXPECT_EQ(p.cellIdOf(q), q);
}

TEST(Linear, SnakeOrderAdjacency)
{
    Grid g(4, 3);
    const auto order = snakeOrder(g);
    ASSERT_EQ(order.size(), 12u);
    // Consecutive snake positions are grid-adjacent cells.
    for (size_t i = 0; i + 1 < order.size(); ++i)
        EXPECT_EQ(g.cell(order[i]).dist(g.cell(order[i + 1])), 1)
            << "position " << i;
    // Every cell appears once.
    const std::set<CellId> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), order.size());
}

TEST(Linear, ChainDecompositionPathsAndCycles)
{
    CouplingGraph g(7);
    // Path 0-1-2, cycle 3-4-5-3, isolated 6.
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    g.addEdge(5, 3);
    const auto chains = chainDecomposition(g);
    size_t total = 0;
    for (const auto &chain : chains) {
        total += chain.size();
        // Consecutive chain entries are coupled.
        for (size_t i = 0; i + 1 < chain.size(); ++i)
            EXPECT_GT(g.edgeWeight(chain[i], chain[i + 1]), 0);
    }
    EXPECT_EQ(total, 7u);

    CouplingGraph star(4);
    star.addEdge(0, 1);
    star.addEdge(0, 2);
    star.addEdge(0, 3);
    EXPECT_THROW(chainDecomposition(star), UserError);
}

TEST(Linear, LinearPlacementMakesChainNeighbours)
{
    const Circuit ising = gen::makeIsing(16, 1);
    const CouplingGraph g(ising);
    Grid grid(4, 4);
    Placement p = linearPlacement(g, grid);
    p.check();
    // Every coupled pair sits on adjacent tiles.
    for (Qubit q = 0; q < 16; ++q)
        for (const auto &[n, w] : g.neighbors(q))
            EXPECT_EQ(p.cellOf(q).dist(p.cellOf(n)), 1);
}

TEST(Linear, SnakePlacementRejectsOverflow)
{
    Grid g(2, 2);
    std::vector<Qubit> order{0, 1, 2, 3, 4};
    EXPECT_THROW(snakePlacement(g, order), UserError);
}

TEST(Initial, DispatchesLinearSpecialCase)
{
    const Circuit ising = gen::makeIsing(9, 1);
    Grid grid(3, 3);
    Rng rng(6);
    InitialPlacementConfig cfg;
    const Placement p = initialPlacement(ising, grid, rng, cfg);
    const CouplingGraph g(ising);
    for (Qubit q = 0; q < 9; ++q)
        for (const auto &[n, w] : g.neighbors(q))
            EXPECT_EQ(p.cellOf(q).dist(p.cellOf(n)), 1);
}

TEST(Initial, StagesCanBeDisabled)
{
    const Circuit c = gen::makeQft(9);
    Grid grid(3, 3);
    Rng rng(7);
    InitialPlacementConfig off;
    off.use_partitioner = false;
    off.use_annealer = false;
    off.use_linear_special = false;
    const Placement p = initialPlacement(c, grid, rng, off);
    for (Qubit q = 0; q < 9; ++q)
        EXPECT_EQ(p.cellIdOf(q), q); // identity when all stages off
}

} // namespace
} // namespace autobraid
