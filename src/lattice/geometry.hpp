/**
 * @file
 * Geometry of the tile/channel grid.
 *
 * The surface-code lattice is partitioned into an R x C grid of logical
 * qubit *tiles* (the paper uses square grids with
 * L = ceil(sqrt(num_qubits))). Channels run between tiles; channel
 * intersections form an (R+1) x (C+1) grid of routing *vertices* and
 * channel segments are the unit *edges* between neighbouring vertices.
 * A braiding path is a simple vertex sequence from a corner of one tile to
 * a corner of another; simultaneous paths must be vertex-disjoint.
 */

#ifndef AUTOBRAID_LATTICE_GEOMETRY_HPP
#define AUTOBRAID_LATTICE_GEOMETRY_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace autobraid {

/** A routing vertex at channel-intersection coordinates (row, col). */
struct Vertex
{
    int r = 0;
    int c = 0;

    bool operator==(const Vertex &o) const = default;

    /** Manhattan distance to @p o. */
    int dist(const Vertex &o) const
    {
        return std::abs(r - o.r) + std::abs(c - o.c);
    }

    std::string toString() const;
};

/** A tile (logical-qubit cell) at grid coordinates (row, col). */
struct Cell
{
    int r = 0;
    int c = 0;

    bool operator==(const Cell &o) const = default;

    /** Chebyshev-style cell distance used to order greedy routing. */
    int dist(const Cell &o) const
    {
        return std::abs(r - o.r) + std::abs(c - o.c);
    }

    std::string toString() const;
};

/** Dense vertex index: r * (cols + 1) + c. */
using VertexId = int32_t;

/** Dense cell index: r * cols + c. */
using CellId = int32_t;

/**
 * Axis-aligned bounding box in *vertex* coordinates, inclusive on all
 * sides. The bounding box of a CX gate is the smallest box containing all
 * corner vertices of both operand tiles (the paper's outer bounding box).
 */
struct BBox
{
    int rmin = 0;
    int cmin = 0;
    int rmax = -1;
    int cmax = -1;

    bool operator==(const BBox &o) const = default;

    /** True when the box contains no vertices. */
    bool empty() const { return rmax < rmin || cmax < cmin; }

    /** Number of enclosed unit cells ((height) x (width)). */
    long area() const;

    /** Expand to cover vertex @p v. */
    void cover(const Vertex &v);

    /** Expand to cover every vertex of @p o. */
    void cover(const BBox &o);

    /** True when @p v lies inside or on the boundary. */
    bool contains(const Vertex &v) const;

    /** True when @p o lies entirely inside or on this box. */
    bool contains(const BBox &o) const;

    /**
     * True when this box strictly encloses @p o: contains it and shares
     * no boundary coordinate (the paper's "strictly nested" relation).
     */
    bool strictlyContains(const BBox &o) const;

    /** True when the two boxes share at least one vertex. */
    bool intersects(const BBox &o) const
    {
        return !empty() && !o.empty() && rmin <= o.rmax &&
               o.rmin <= rmax && cmin <= o.cmax && o.cmin <= cmax;
    }

    /**
     * The bounding box of the two corner spans of cells @p a and @p b:
     * the outer bounding box of a CX between them.
     */
    static BBox ofCells(const Cell &a, const Cell &b)
    {
        return BBox{std::min(a.r, b.r), std::min(a.c, b.c),
                    std::max(a.r, b.r) + 1, std::max(a.c, b.c) + 1};
    }

    std::string toString() const;
};

/** The routing grid: R x C tiles, (R+1) x (C+1) vertices. */
class Grid
{
  public:
    /** Create an @p rows x @p cols tile grid. */
    Grid(int rows, int cols);

    /**
     * The paper's platform grid: the smallest square grid with at least
     * @p num_qubits tiles, L = ceil(sqrt(num_qubits)).
     */
    static Grid forQubits(int num_qubits);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    /** Vertex grid dimensions. */
    int vertexRows() const { return rows_ + 1; }
    int vertexCols() const { return cols_ + 1; }

    int numCells() const { return rows_ * cols_; }
    int numVertices() const { return vertexRows() * vertexCols(); }

    /** True when @p v is a valid vertex coordinate. */
    bool inBounds(const Vertex &v) const
    {
        return v.r >= 0 && v.r <= rows_ && v.c >= 0 && v.c <= cols_;
    }

    /** True when @p cell is a valid tile coordinate. */
    bool inBounds(const Cell &cell) const
    {
        return cell.r >= 0 && cell.r < rows_ && cell.c >= 0 &&
               cell.c < cols_;
    }

    /** Dense id of @p v. */
    VertexId vid(const Vertex &v) const;

    /** Vertex for dense id @p id. */
    Vertex vertex(VertexId id) const;

    /** Dense id of @p cell. */
    CellId cid(const Cell &cell) const;

    /** Cell for dense id @p id. */
    Cell cell(CellId id) const
    {
        if (id < 0 || id >= numCells()) [[unlikely]]
            panic("Grid::cell: id out of range");
        return Cell{id / cols_, id % cols_};
    }

    /** The four corner vertices of @p cell (NW, NE, SW, SE). */
    std::array<Vertex, 4> corners(const Cell &cell) const;

    /** The four corner vertex ids of @p cell. */
    std::array<VertexId, 4> cornerIds(const Cell &cell) const;

    /**
     * Neighbouring vertex ids of @p id (up to four); returns the count
     * and fills @p out.
     */
    int neighbors(VertexId id, std::array<VertexId, 4> &out) const;

    /** True when @p v lies on the outer boundary of the vertex grid. */
    bool onBoundary(const Vertex &v) const
    {
        return v.r == 0 || v.c == 0 || v.r == rows_ || v.c == cols_;
    }

  private:
    int rows_;
    int cols_;
};

} // namespace autobraid

#endif // AUTOBRAID_LATTICE_GEOMETRY_HPP
