#include "route/astar.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

namespace {

/** True when vertex (r, c) is a corner of @p dst allowed by @p dst_corners. */
inline bool
isTargetCorner(const Cell &dst, unsigned dst_corners, int r, int c)
{
    const auto dr = static_cast<unsigned>(r - dst.r);
    const auto dc = static_cast<unsigned>(c - dst.c);
    return dr <= 1 && dc <= 1 && (dst_corners >> (2 * dr + dc) & 1u);
}

} // namespace

BlockedBitset
noBlockedVertices(const Grid &grid)
{
    return BlockedBitset(static_cast<size_t>(grid.numVertices()));
}

AStarRouter::AStarRouter(const Grid &grid)
    : grid_(&grid),
      rows_(grid.rows()),
      cols_(grid.cols()),
      vcols_(grid.vertexCols()),
      seen_(static_cast<size_t>(grid.numVertices()), 0),
      dist_(static_cast<size_t>(grid.numVertices()), 0),
      parent_(static_cast<size_t>(grid.numVertices()), -1),
      region_stamp_(static_cast<size_t>(grid.numVertices()), 0)
{
    coord_.reserve(static_cast<size_t>(grid.numVertices()));
    for (int r = 0; r <= rows_; ++r)
        for (int c = 0; c <= cols_; ++c)
            coord_.push_back(Vertex{r, c});
}

void
AStarRouter::beginFloodCache()
{
    cache_on_ = true;
    if (flood_id_ == UINT32_MAX) {
        std::fill(region_stamp_.begin(), region_stamp_.end(), 0u);
        flood_id_ = 0;
    }
    cache_first_flood_ = flood_id_ + 1;
}

uint32_t
AStarRouter::nextStamp()
{
    if (stamp_ == UINT32_MAX) {
        std::fill(seen_.begin(), seen_.end(), 0u);
        stamp_ = 0;
    }
    return ++stamp_;
}

std::optional<Path>
AStarRouter::route(const Cell &src, const Cell &dst,
                   const BlockedBitset &blocked, unsigned src_corners,
                   unsigned dst_corners)
{
    require(!(src == dst), "AStarRouter::route: source equals target");
    require(grid_->inBounds(src) && grid_->inBounds(dst),
            "AStarRouter::route: cell out of bounds");
    require((src_corners & kAllCorners) != 0 &&
                (dst_corners & kAllCorners) != 0,
            "AStarRouter::route: empty corner mask");
    require(blocked.size() ==
                static_cast<size_t>(grid_->numVertices()),
            "AStarRouter::route: blocked mask does not cover the grid");

    if (cache_on_ && regionCacheRejects(src, dst, blocked, src_corners,
                                        dst_corners)) {
        AUTOBRAID_COUNT("route.astar_region_skips");
        return std::nullopt;
    }

    if (floodReaches(src, dst, blocked, src_corners, dst_corners))
        return search(src, dst, blocked, src_corners, dst_corners);

    // The flood listed exactly the free region of the usable source
    // corners. Stamp it so later queries of the same claim from inside
    // it can fail without searching.
    if (cache_on_) {
        ++flood_id_;
        for (const VertexId v : flood_)
            region_stamp_[static_cast<size_t>(v)] = flood_id_;
    }
    // Search-effort telemetry: a miss counts the vertices its flood
    // visited, the expansions a failed A* makes ("route.astar_nodes";
    // no-op without a sink).
    AUTOBRAID_OBSERVE("route.astar_nodes",
                      static_cast<double>(flood_.size()));
    AUTOBRAID_COUNT("route.astar_misses");
    return std::nullopt;
}

bool
AStarRouter::regionCacheRejects(const Cell &src, const Cell &dst,
                                const BlockedBitset &blocked,
                                unsigned src_corners,
                                unsigned dst_corners) const
{
    // Masks only grow within a claim, so regions only shrink: a
    // source and a target in different regions of an earlier failed
    // flood are still apart.
    uint32_t src_stamps[4];
    int n_src = 0;
    for (int i = 0; i < 4; ++i) {
        if (!(src_corners & (1u << i)))
            continue;
        const VertexId s = cornerId(src, i);
        if (blocked[s])
            continue;
        const uint32_t st = region_stamp_[static_cast<size_t>(s)];
        if (st < cache_first_flood_)
            return false;
        src_stamps[n_src++] = st;
    }
    if (n_src == 0)
        return false;
    for (int i = 0; i < 4; ++i) {
        if (!(dst_corners & (1u << i)))
            continue;
        const VertexId d = cornerId(dst, i);
        if (blocked[d])
            continue;
        const uint32_t st = region_stamp_[static_cast<size_t>(d)];
        for (int k = 0; k < n_src; ++k)
            if (src_stamps[k] == st)
                return false;
    }
    return true;
}

bool
AStarRouter::floodReaches(const Cell &src, const Cell &dst,
                          const BlockedBitset &blocked,
                          unsigned src_corners, unsigned dst_corners)
{
    const uint32_t stamp = nextStamp();
    flood_.clear();
    stack_.clear();
    // Visit free vertex w at (r, c): true when it is a usable target.
    auto visit = [&](VertexId w, int r, int c) {
        const auto wi = static_cast<size_t>(w);
        if (blocked.test(wi) || seen_[wi] == stamp)
            return false;
        seen_[wi] = stamp;
        flood_.push_back(w);
        if (isTargetCorner(dst, dst_corners, r, c))
            return true;
        stack_.push_back(w);
        return false;
    };
    for (int i = 0; i < 4; ++i)
        if ((src_corners >> i & 1u) &&
            visit(cornerId(src, i), src.r + (i >> 1), src.c + (i & 1)))
            return true;
    while (!stack_.empty()) {
        const VertexId v = stack_.back();
        stack_.pop_back();
        const Vertex p = coord_[static_cast<size_t>(v)];
        // Moves toward the target tile go on the stack last, so they
        // are tried first.
        const bool up_t = p.r > dst.r + 1;
        const bool down_t = p.r < dst.r;
        const bool left_t = p.c > dst.c + 1;
        const bool right_t = p.c < dst.c;
        if ((p.r > 0 && !up_t && visit(v - vcols_, p.r - 1, p.c)) ||
            (p.r < rows_ && !down_t &&
             visit(v + vcols_, p.r + 1, p.c)) ||
            (p.c > 0 && !left_t && visit(v - 1, p.r, p.c - 1)) ||
            (p.c < cols_ && !right_t && visit(v + 1, p.r, p.c + 1)) ||
            (up_t && visit(v - vcols_, p.r - 1, p.c)) ||
            (down_t && visit(v + vcols_, p.r + 1, p.c)) ||
            (left_t && visit(v - 1, p.r, p.c - 1)) ||
            (right_t && visit(v + 1, p.r, p.c + 1)))
            return true;
    }
    return false;
}

Path
AStarRouter::search(const Cell &src, const Cell &dst,
                    const BlockedBitset &blocked, unsigned src_corners,
                    unsigned dst_corners)
{
    const uint32_t stamp = nextStamp();
    // Heuristic: Manhattan distance to the nearest usable target
    // corner.
    int tr[4] = {}, tc[4] = {};
    int nt = 0;
    for (int i = 0; i < 4; ++i)
        if (dst_corners >> i & 1u) {
            tr[nt] = dst.r + (i >> 1);
            tc[nt] = dst.c + (i & 1);
            ++nt;
        }
    auto heuristic = [&](int r, int c) {
        int best = std::abs(r - tr[0]) + std::abs(c - tc[0]);
        for (int k = 1; k < nt; ++k)
            best = std::min(best,
                            std::abs(r - tr[k]) + std::abs(c - tc[k]));
        return best;
    };
    const auto later = [](const OpenEntry &a, const OpenEntry &b) {
        return a.key > b.key;
    };
    auto push = [&](VertexId w, int32_t g, int r, int c) {
        const auto f = static_cast<uint32_t>(g + heuristic(r, c));
        open_.push_back(OpenEntry{
            (uint64_t{f} << 32) | (UINT32_MAX - static_cast<uint32_t>(g)),
            w});
        std::push_heap(open_.begin(), open_.end(), later);
    };

    open_.clear();
    for (int i = 0; i < 4; ++i) {
        if (!(src_corners >> i & 1u))
            continue;
        const VertexId s = cornerId(src, i);
        const auto si = static_cast<size_t>(s);
        if (blocked.test(si))
            continue;
        seen_[si] = stamp;
        dist_[si] = 1; // cost counts vertices consumed
        parent_[si] = -1;
        push(s, 1, src.r + (i >> 1), src.c + (i & 1));
    }

    // Search-effort telemetry: expansions per query feed the
    // "route.astar_nodes" histogram (no-op without a sink).
    size_t expanded = 0;
    while (!open_.empty()) {
        std::pop_heap(open_.begin(), open_.end(), later);
        const OpenEntry top = open_.back();
        open_.pop_back();
        const VertexId v = top.v;
        const auto g = static_cast<int32_t>(
            UINT32_MAX - static_cast<uint32_t>(top.key));
        if (dist_[static_cast<size_t>(v)] != g)
            continue; // stale entry
        ++expanded;
        const Vertex p = coord_[static_cast<size_t>(v)];
        if (isTargetCorner(dst, dst_corners, p.r, p.c)) {
            // dist_ counts the path's vertices: fill it back to front.
            Path path;
            path.vertices.resize(static_cast<size_t>(g));
            VertexId cur = v;
            for (size_t k = path.vertices.size(); k-- > 0;) {
                path.vertices[k] = cur;
                cur = parent_[static_cast<size_t>(cur)];
            }
            AUTOBRAID_OBSERVE("route.astar_nodes",
                              static_cast<double>(expanded));
            return path;
        }
        const int32_t ng = g + 1;
        auto relax = [&](VertexId w, int r, int c) {
            const auto wi = static_cast<size_t>(w);
            if (blocked.test(wi) ||
                (seen_[wi] == stamp && dist_[wi] <= ng))
                return;
            seen_[wi] = stamp;
            dist_[wi] = ng;
            parent_[wi] = v;
            push(w, ng, r, c);
        };
        // Neighbour order: up, down, left, right.
        if (p.r > 0)
            relax(v - vcols_, p.r - 1, p.c);
        if (p.r < rows_)
            relax(v + vcols_, p.r + 1, p.c);
        if (p.c > 0)
            relax(v - 1, p.r, p.c - 1);
        if (p.c < cols_)
            relax(v + 1, p.r, p.c + 1);
    }
    panic("AStarRouter: the flood reached a target the search did not");
}

} // namespace autobraid
