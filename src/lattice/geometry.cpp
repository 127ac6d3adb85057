#include "lattice/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/text.hpp"

namespace autobraid {

std::string
Vertex::toString() const
{
    return strformat("(%d,%d)", r, c);
}

std::string
Cell::toString() const
{
    return strformat("[%d,%d]", r, c);
}

long
BBox::area() const
{
    if (empty())
        return 0;
    return static_cast<long>(rmax - rmin) * static_cast<long>(cmax - cmin);
}

void
BBox::cover(const Vertex &v)
{
    if (empty()) {
        rmin = rmax = v.r;
        cmin = cmax = v.c;
        return;
    }
    rmin = std::min(rmin, v.r);
    rmax = std::max(rmax, v.r);
    cmin = std::min(cmin, v.c);
    cmax = std::max(cmax, v.c);
}

void
BBox::cover(const BBox &o)
{
    if (o.empty())
        return;
    cover(Vertex{o.rmin, o.cmin});
    cover(Vertex{o.rmax, o.cmax});
}

bool
BBox::contains(const Vertex &v) const
{
    return v.r >= rmin && v.r <= rmax && v.c >= cmin && v.c <= cmax;
}

bool
BBox::contains(const BBox &o) const
{
    if (o.empty())
        return true;
    return o.rmin >= rmin && o.rmax <= rmax && o.cmin >= cmin &&
           o.cmax <= cmax;
}

bool
BBox::strictlyContains(const BBox &o) const
{
    if (empty() || o.empty())
        return false;
    return o.rmin > rmin && o.rmax < rmax && o.cmin > cmin &&
           o.cmax < cmax;
}

std::string
BBox::toString() const
{
    return strformat("[%d,%d]..[%d,%d]", rmin, cmin, rmax, cmax);
}

Grid::Grid(int rows, int cols) : rows_(rows), cols_(cols)
{
    if (rows <= 0 || cols <= 0)
        fatal("Grid requires positive dimensions, got %dx%d", rows, cols);
}

Grid
Grid::forQubits(int num_qubits)
{
    if (num_qubits <= 0)
        fatal("Grid::forQubits requires a positive count, got %d",
              num_qubits);
    const int side = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(num_qubits))));
    return Grid(side, side);
}

VertexId
Grid::vid(const Vertex &v) const
{
    require(inBounds(v), "Grid::vid: vertex out of bounds");
    return static_cast<VertexId>(v.r * vertexCols() + v.c);
}

Vertex
Grid::vertex(VertexId id) const
{
    require(id >= 0 && id < numVertices(), "Grid::vertex: id out of range");
    return Vertex{id / vertexCols(), id % vertexCols()};
}

CellId
Grid::cid(const Cell &cell) const
{
    require(inBounds(cell), "Grid::cid: cell out of bounds");
    return static_cast<CellId>(cell.r * cols_ + cell.c);
}

std::array<Vertex, 4>
Grid::corners(const Cell &cell) const
{
    require(inBounds(cell), "Grid::corners: cell out of bounds");
    return {Vertex{cell.r, cell.c}, Vertex{cell.r, cell.c + 1},
            Vertex{cell.r + 1, cell.c}, Vertex{cell.r + 1, cell.c + 1}};
}

std::array<VertexId, 4>
Grid::cornerIds(const Cell &cell) const
{
    const auto cs = corners(cell);
    return {vid(cs[0]), vid(cs[1]), vid(cs[2]), vid(cs[3])};
}

int
Grid::neighbors(VertexId id, std::array<VertexId, 4> &out) const
{
    const Vertex v = vertex(id);
    int n = 0;
    if (v.r > 0)
        out[n++] = id - vertexCols();
    if (v.r < rows_)
        out[n++] = id + vertexCols();
    if (v.c > 0)
        out[n++] = id - 1;
    if (v.c < cols_)
        out[n++] = id + 1;
    return n;
}

} // namespace autobraid
