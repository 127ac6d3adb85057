#include "route/astar.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

BlockedBitset
noBlockedVertices(const Grid &grid)
{
    return BlockedBitset(static_cast<size_t>(grid.numVertices()));
}

namespace {

/** Smaller f first; larger g preferred on ties (keeps the frontier
 * tight). Inverted for heap use (std::push_heap keeps the max first). */
struct OpenLater
{
    bool
    operator()(const std::tuple<int32_t, int32_t, VertexId> &a,
               const std::tuple<int32_t, int32_t, VertexId> &b) const
    {
        if (std::get<0>(a) != std::get<0>(b))
            return std::get<0>(a) > std::get<0>(b);
        return std::get<1>(a) < std::get<1>(b);
    }
};

} // namespace

AStarRouter::AStarRouter(const Grid &grid)
    : grid_(&grid),
      seen_(static_cast<size_t>(grid.numVertices()), 0),
      dist_(static_cast<size_t>(grid.numVertices()), 0),
      parent_(static_cast<size_t>(grid.numVertices()), -1),
      region_stamp_(static_cast<size_t>(grid.numVertices()), 0)
{}

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

    ++stamp_;
    const auto targets = grid_->corners(dst);
    const auto target_ids = grid_->cornerIds(dst);
    const auto source_ids = grid_->cornerIds(src);

    // Failed-flood region cache (see claim()): when every usable
    // source corner sits in a region some failed flood of this claim
    // already explored, and no usable target corner carries a matching
    // region stamp, the query cannot succeed — masks only grow within
    // a claim, so regions only shrink.
    if (cache_on_) {
        uint32_t src_stamps[4];
        int n_src = 0;
        bool all_stamped = true;
        for (int i = 0; i < 4; ++i) {
            if (!(src_corners & (1u << i)))
                continue;
            const VertexId s = source_ids[static_cast<size_t>(i)];
            if (blocked[s])
                continue;
            const uint32_t st =
                region_stamp_[static_cast<size_t>(s)];
            if (st < cache_first_flood_) {
                all_stamped = false;
                break;
            }
            src_stamps[n_src++] = st;
        }
        if (all_stamped && n_src > 0) {
            bool maybe_reachable = false;
            for (int i = 0; i < 4 && !maybe_reachable; ++i) {
                if (!(dst_corners & (1u << i)))
                    continue;
                const VertexId d =
                    target_ids[static_cast<size_t>(i)];
                if (blocked[d])
                    continue;
                const uint32_t st =
                    region_stamp_[static_cast<size_t>(d)];
                for (int k = 0; k < n_src; ++k) {
                    if (src_stamps[k] == st) {
                        maybe_reachable = true;
                        break;
                    }
                }
            }
            if (!maybe_reachable) {
                AUTOBRAID_COUNT("route.astar_region_skips");
                return std::nullopt;
            }
        }
    }

    auto heuristic = [&targets, dst_corners](const Vertex &v) {
        int best = -1;
        for (int i = 0; i < 4; ++i) {
            if (!(dst_corners & (1u << i)))
                continue;
            const int d = targets[static_cast<size_t>(i)].dist(v);
            if (best < 0 || d < best)
                best = d;
        }
        return best;
    };
    auto is_target = [&target_ids, dst_corners](VertexId v) {
        for (int i = 0; i < 4; ++i)
            if ((dst_corners & (1u << i)) &&
                target_ids[static_cast<size_t>(i)] == v)
                return true;
        return false;
    };

    open_.clear();
    const OpenLater later{};

    for (int i = 0; i < 4; ++i) {
        if (!(src_corners & (1u << i)))
            continue;
        const VertexId s = source_ids[static_cast<size_t>(i)];
        if (blocked[s])
            continue;
        const auto idx = static_cast<size_t>(s);
        if (seen_[idx] == stamp_)
            continue; // shared corner pushed twice
        seen_[idx] = stamp_;
        dist_[idx] = 1; // cost counts vertices consumed
        parent_[idx] = -1;
        open_.emplace_back(1 + heuristic(grid_->vertex(s)), 1, s);
        std::push_heap(open_.begin(), open_.end(), later);
    }

    // Search-effort telemetry: expansions per query feed the
    // "route.astar_nodes" histogram (no-op without a sink).
    size_t expanded = 0;
    std::array<VertexId, 4> nbrs;
    while (!open_.empty()) {
        const auto [f, g, v] = open_.front();
        std::pop_heap(open_.begin(), open_.end(), later);
        open_.pop_back();
        const auto vi = static_cast<size_t>(v);
        if (dist_[vi] != g || seen_[vi] != stamp_)
            continue; // stale entry
        ++expanded;
        if (is_target(v)) {
            Path path;
            for (VertexId cur = v; cur != -1;
                 cur = parent_[static_cast<size_t>(cur)])
                path.vertices.push_back(cur);
            std::reverse(path.vertices.begin(), path.vertices.end());
            AUTOBRAID_OBSERVE("route.astar_nodes",
                              static_cast<double>(expanded));
            return path;
        }
        const int n = grid_->neighbors(v, nbrs);
        for (int i = 0; i < n; ++i) {
            const VertexId w = nbrs[i];
            if (blocked[w])
                continue;
            const auto wi = static_cast<size_t>(w);
            const int32_t ng = g + 1;
            if (seen_[wi] == stamp_ && dist_[wi] <= ng)
                continue;
            seen_[wi] = stamp_;
            dist_[wi] = ng;
            parent_[wi] = v;
            open_.emplace_back(ng + heuristic(grid_->vertex(w)), ng, w);
            std::push_heap(open_.begin(), open_.end(), later);
        }
    }
    // The exhausted flood visited exactly the free connected region of
    // the usable source corners — the vertices carrying this query's
    // seen_ stamp. Stamp that region so later queries of the same
    // claim from inside it can fail without searching. The scan is
    // O(vertices) and runs only on the failure path, so successful
    // routes pay nothing for the cache.
    if (cache_on_) {
        ++flood_id_;
        for (size_t v = 0; v < seen_.size(); ++v)
            if (seen_[v] == stamp_)
                region_stamp_[v] = flood_id_;
    }
    AUTOBRAID_OBSERVE("route.astar_nodes",
                      static_cast<double>(expanded));
    AUTOBRAID_COUNT("route.astar_misses");
    return std::nullopt;
}

} // namespace autobraid
