#include "lattice/defects.hpp"

#include <queue>

#include "common/error.hpp"

namespace autobraid {

DefectMap::DefectMap(const Grid &grid)
    : dead_(static_cast<size_t>(grid.numVertices()), 0)
{}

std::vector<VertexId>
DefectMap::deadVertices() const
{
    std::vector<VertexId> out;
    for (size_t v = 0; v < dead_.size(); ++v)
        if (dead_[v])
            out.push_back(static_cast<VertexId>(v));
    return out;
}

bool
DefectMap::wouldViolate(const Grid &grid, VertexId v) const
{
    // Invariant 1: every tile keeps a usable corner.
    const Vertex vx = grid.vertex(v);
    for (int dr = -1; dr <= 0; ++dr) {
        for (int dc = -1; dc <= 0; ++dc) {
            const Cell cell{vx.r + dr, vx.c + dc};
            if (!grid.inBounds(cell))
                continue;
            int live = 0;
            for (VertexId corner : grid.cornerIds(cell))
                if (corner != v && !dead(corner))
                    ++live;
            if (live == 0)
                return true;
        }
    }

    // Invariant 2: the live routing graph stays connected.
    const auto total = static_cast<size_t>(grid.numVertices());
    if (dead_count_ + 1 >= total)
        return true;
    VertexId start = -1;
    for (size_t u = 0; u < total; ++u) {
        if (!dead_[u] && static_cast<VertexId>(u) != v) {
            start = static_cast<VertexId>(u);
            break;
        }
    }
    if (start < 0)
        return true;
    std::vector<uint8_t> seen(total, 0);
    std::queue<VertexId> frontier;
    frontier.push(start);
    seen[static_cast<size_t>(start)] = 1;
    size_t reached = 1;
    std::array<VertexId, 4> nbrs;
    while (!frontier.empty()) {
        const VertexId u = frontier.front();
        frontier.pop();
        const int n = grid.neighbors(u, nbrs);
        for (int i = 0; i < n; ++i) {
            const VertexId w = nbrs[i];
            if (w == v || dead(w) || seen[static_cast<size_t>(w)])
                continue;
            seen[static_cast<size_t>(w)] = 1;
            ++reached;
            frontier.push(w);
        }
    }
    return reached != total - dead_count_ - 1;
}

void
DefectMap::markDead(const Grid &grid, VertexId v)
{
    require(v >= 0 && v < grid.numVertices(),
            "DefectMap::markDead: vertex out of range");
    if (dead(v))
        return;
    if (wouldViolate(grid, v))
        fatal("defect at vertex %d would strand a tile or disconnect "
              "the routing lattice",
              v);
    dead_[static_cast<size_t>(v)] = 1;
    ++dead_count_;
}

DefectMap
DefectMap::random(const Grid &grid, int count, Rng &rng)
{
    DefectMap map(grid);
    int placed = 0;
    int attempts = 0;
    const int max_attempts = 20 * count + 100;
    while (placed < count && attempts < max_attempts) {
        ++attempts;
        const auto v = static_cast<VertexId>(
            rng.index(static_cast<size_t>(grid.numVertices())));
        if (map.dead(v) || map.wouldViolate(grid, v))
            continue;
        map.dead_[static_cast<size_t>(v)] = 1;
        ++map.dead_count_;
        ++placed;
    }
    return map;
}

std::vector<VertexId>
injectedDefects(const Grid &grid, int count, uint64_t seed)
{
    Rng rng(seed ^ 0xdefecu);
    return DefectMap::random(grid, count, rng).deadVertices();
}

} // namespace autobraid
