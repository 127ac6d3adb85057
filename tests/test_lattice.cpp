/**
 * @file
 * Unit tests for the lattice substrate: grid geometry, bounding boxes,
 * the surface-code error model, and the gate cost model.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "lattice/cost_model.hpp"
#include "lattice/geometry.hpp"
#include "lattice/surface_code.hpp"

namespace autobraid {
namespace {

TEST(Grid, Dimensions)
{
    Grid g(3, 4);
    EXPECT_EQ(g.rows(), 3);
    EXPECT_EQ(g.cols(), 4);
    EXPECT_EQ(g.numCells(), 12);
    EXPECT_EQ(g.vertexRows(), 4);
    EXPECT_EQ(g.vertexCols(), 5);
    EXPECT_EQ(g.numVertices(), 20);
    EXPECT_THROW(Grid(0, 3), UserError);
}

TEST(Grid, ForQubitsUsesCeilSqrt)
{
    EXPECT_EQ(Grid::forQubits(1).rows(), 1);
    EXPECT_EQ(Grid::forQubits(4).rows(), 2);
    EXPECT_EQ(Grid::forQubits(5).rows(), 3);
    EXPECT_EQ(Grid::forQubits(100).rows(), 10);
    EXPECT_EQ(Grid::forQubits(101).rows(), 11);
    EXPECT_THROW(Grid::forQubits(0), UserError);
}

TEST(Grid, VertexIdRoundTrip)
{
    Grid g(3, 3);
    for (VertexId id = 0; id < g.numVertices(); ++id)
        EXPECT_EQ(g.vid(g.vertex(id)), id);
    EXPECT_THROW(g.vid(Vertex{4, 0}), InternalError);
    EXPECT_THROW(g.vertex(-1), InternalError);
}

TEST(Grid, CellIdRoundTrip)
{
    Grid g(2, 5);
    for (CellId id = 0; id < g.numCells(); ++id)
        EXPECT_EQ(g.cid(g.cell(id)), id);
}

TEST(Grid, Corners)
{
    Grid g(3, 3);
    const auto cs = g.corners(Cell{1, 2});
    EXPECT_EQ(cs[0], (Vertex{1, 2}));
    EXPECT_EQ(cs[1], (Vertex{1, 3}));
    EXPECT_EQ(cs[2], (Vertex{2, 2}));
    EXPECT_EQ(cs[3], (Vertex{2, 3}));
}

TEST(Grid, NeighborsCornerAndCenter)
{
    Grid g(2, 2);
    std::array<VertexId, 4> nbrs;
    // Corner vertex (0,0) has 2 neighbours.
    EXPECT_EQ(g.neighbors(g.vid(Vertex{0, 0}), nbrs), 2);
    // Center vertex (1,1) has 4.
    EXPECT_EQ(g.neighbors(g.vid(Vertex{1, 1}), nbrs), 4);
    // Edge vertex (0,1) has 3.
    EXPECT_EQ(g.neighbors(g.vid(Vertex{0, 1}), nbrs), 3);
}

TEST(Grid, OnBoundary)
{
    Grid g(3, 3);
    EXPECT_TRUE(g.onBoundary(Vertex{0, 1}));
    EXPECT_TRUE(g.onBoundary(Vertex{3, 3}));
    EXPECT_FALSE(g.onBoundary(Vertex{1, 2}));
}

TEST(BBox, CoverAndContains)
{
    BBox box;
    EXPECT_TRUE(box.empty());
    box.cover(Vertex{2, 3});
    EXPECT_FALSE(box.empty());
    EXPECT_EQ(box.area(), 0);
    box.cover(Vertex{4, 1});
    EXPECT_EQ(box.area(), 2L * 2L);
    EXPECT_TRUE(box.contains(Vertex{3, 2}));
    EXPECT_FALSE(box.contains(Vertex{5, 2}));
}

TEST(BBox, Intersection)
{
    const BBox a = BBox::ofCells(Cell{0, 0}, Cell{1, 1});
    const BBox b = BBox::ofCells(Cell{2, 2}, Cell{3, 3});
    // They share the vertex (2,2).
    EXPECT_TRUE(a.intersects(b));
    const BBox c = BBox::ofCells(Cell{3, 3}, Cell{4, 4});
    EXPECT_FALSE(a.intersects(c));
    EXPECT_TRUE(b.intersects(c));
}

TEST(BBox, StrictContainment)
{
    const BBox outer = BBox::ofCells(Cell{0, 0}, Cell{4, 4});
    const BBox inner = BBox::ofCells(Cell{1, 1}, Cell{3, 3});
    const BBox touching = BBox::ofCells(Cell{0, 0}, Cell{2, 2});
    EXPECT_TRUE(outer.strictlyContains(inner));
    EXPECT_FALSE(outer.strictlyContains(touching)); // shares boundary
    EXPECT_FALSE(inner.strictlyContains(outer));
    EXPECT_TRUE(outer.contains(touching));
}

TEST(BBox, OfCells)
{
    const BBox box = BBox::ofCells(Cell{1, 4}, Cell{3, 0});
    EXPECT_EQ(box.rmin, 1);
    EXPECT_EQ(box.cmin, 0);
    EXPECT_EQ(box.rmax, 4);
    EXPECT_EQ(box.cmax, 5);
}

TEST(SurfaceCode, LogicalErrorRateEq1)
{
    SurfaceCodeParams p; // p=1e-3, pth=0.57e-2, A=0.03
    // Paper: d = 55 gives P_L ~ 9.3e-23.
    const double pl = p.logicalErrorRate(55);
    EXPECT_GT(pl, 1e-23);
    EXPECT_LT(pl, 1e-21);
    // Monotone decreasing in d.
    EXPECT_GT(p.logicalErrorRate(3), p.logicalErrorRate(5));
    EXPECT_THROW(p.logicalErrorRate(0), UserError);
}

TEST(SurfaceCode, DistanceForTarget)
{
    SurfaceCodeParams p;
    const int d = p.distanceFor(1e-10);
    EXPECT_GT(d, 1);
    EXPECT_EQ(d % 2, 1); // odd distances only
    EXPECT_LE(p.logicalErrorRate(d), 1e-10);
    EXPECT_GT(p.logicalErrorRate(d - 2), 1e-10); // minimality
}

TEST(SurfaceCode, DistanceForRejectsBadInputs)
{
    SurfaceCodeParams p;
    EXPECT_THROW(p.distanceFor(0.0), UserError);
    SurfaceCodeParams above;
    above.physical_error = 0.01; // above threshold
    EXPECT_THROW(above.distanceFor(1e-10), UserError);
}

TEST(SurfaceCode, PhysicalQubits)
{
    SurfaceCodeParams p;
    EXPECT_EQ(p.physicalQubitsPerTile(33), 2L * 34 * 34);
    EXPECT_EQ(p.physicalQubits(100, 33), 100L * 2 * 34 * 34);
}

TEST(CostModel, Durations)
{
    CostModel cost;
    cost.distance = 33;
    EXPECT_EQ(cost.cxCycles(), 68u);
    EXPECT_EQ(cost.swapCycles(), 204u);
    EXPECT_EQ(cost.hCycles(), 33u);
    EXPECT_EQ(cost.duration(Gate::oneQubit(GateKind::X, 0)), 0u);
    EXPECT_EQ(cost.duration(Gate::oneQubit(GateKind::T, 0)), 2u);
    EXPECT_EQ(cost.duration(Gate::twoQubit(GateKind::CX, 0, 1)), 68u);
    EXPECT_EQ(cost.duration(Gate::twoQubit(GateKind::Swap, 0, 1)),
              204u);
}

TEST(CostModel, MicrosConversion)
{
    CostModel cost;
    EXPECT_DOUBLE_EQ(cost.micros(1000), 2200.0);
    EXPECT_DOUBLE_EQ(cost.seconds(1000), 2.2e-3);
}

TEST(CostModel, DurationFnMatchesDuration)
{
    CostModel cost;
    const auto fn = cost.durationFn();
    const Gate g = Gate::twoQubit(GateKind::CX, 0, 1);
    EXPECT_EQ(fn(g), cost.duration(g));
}

TEST(CostModel, BvCriticalPathMatchesPaperScale)
{
    // Paper Table 2: BV-100 has CP 15.2K us at d=33, 2.2 us/cycle.
    // Our model: 99 serial CX + 2 H = 99*68 + 66 = 6798 cycles
    // = 14.96K us; within a few percent of the paper's 15.2K us.
    CostModel cost;
    const Cycles cp = 99 * cost.cxCycles() + 2 * cost.hCycles();
    const double us = cost.micros(cp);
    EXPECT_GT(us, 14000.0);
    EXPECT_LT(us, 16000.0);
}

} // namespace
} // namespace autobraid
