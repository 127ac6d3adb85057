/**
 * @file
 * Test-only reference for the A* router.
 *
 * This is the `AStarRouter` the library used before a query flooded
 * its region first: every query, failed or not, runs the A* on a heap
 * of (f, g, vertex) tuples ordered by `OpenLater`, reads corners,
 * neighbours and coordinates through `Grid`, and a failed flood stamps
 * its region by scanning every vertex's visit stamp. It is copied
 * unchanged apart from `inline`, the namespace, and the header and
 * source files joined into one. `AStar.MatchesReference` compares the
 * library's router against it query by query, path and metrics.
 */

#ifndef AUTOBRAID_TESTS_ASTAR_REFERENCE_HPP
#define AUTOBRAID_TESTS_ASTAR_REFERENCE_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "lattice/geometry.hpp"
#include "route/blocked_bitset.hpp"
#include "route/path.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace reference {

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


/**
 * Reusable A* router. Scratch buffers (visit stamps, distances,
 * parents, and the open list) are owned by the instance and stamped
 * per query, so repeated route() calls do not allocate.
 */
class AStarRouter
{
  public:
    explicit AStarRouter(const Grid &grid);

    /** Corner bitmask: all 16 endpoint configurations allowed. */
    static constexpr unsigned kAllCorners = 0xF;

    /**
     * NW corner only — models the baseline's defect-to-defect braids,
     * which lack AutoBraid's 16 endpoint configurations (paper Fig. 5).
     */
    static constexpr unsigned kFixedCorner = 0x1;

    /**
     * Find a shortest congestion-free path from a corner of @p src to a
     * corner of @p dst.
     *
     * @param src source tile (must differ from @p dst)
     * @param dst target tile
     * @param blocked one bit per grid vertex; set = unavailable to
     *        this path (must cover every vertex of the grid)
     * @param src_corners bitmask over the NW/NE/SW/SE corners of @p src
     *        usable as path start
     * @param dst_corners bitmask over the corners of @p dst usable as
     *        path end
     * @return the path, or std::nullopt when no free path exists.
     */
    std::optional<Path> route(const Cell &src, const Cell &dst,
                              const BlockedBitset &blocked,
                              unsigned src_corners = kAllCorners,
                              unsigned dst_corners = kAllCorners);

    /**
     * The claim loop every path finder runs. For each task index in
     * @p order, @p query(task, mask) returns that task's path against
     * @p mask, or std::nullopt; the mask holds @p blocked plus the
     * vertices of every path claimed earlier in this call. A returned
     * path's vertices are claimed and the task is appended to @p out's
     * routed list; otherwise it is appended to the failed list. The
     * query must route against the mask it is given.
     *
     * Within the loop the mask only gains vertices, so the router
     * caches failed floods for exactly its duration. A failed flood
     * visits exactly the free connected region of its usable source
     * corners; the router stamps those vertices and instantly fails a
     * later query whose usable sources all sit in flooded regions that
     * hold no usable target corner. Sound because masks only grow: two
     * vertices connected now were connected at every earlier flood, so
     * their latest region stamps are equal. The cache ends with the
     * call, so no other route() answers from its floods.
     */
    template <typename Query>
    void
    claim(const BlockedBitset &blocked, std::span<const size_t> order,
          Query &&query, RoutingOutcome &out)
    {
        claimed_ = blocked;
        beginFloodCache();
        const struct EndFloodCache
        {
            bool *on;
            ~EndFloodCache() { *on = false; }
        } end{&cache_on_};
        for (const size_t idx : order) {
            std::optional<Path> path = query(idx, std::as_const(claimed_));
            if (!path) {
                out.failed.push_back(idx);
                continue;
            }
            for (const VertexId v : path->vertices)
                claimed_.set(static_cast<size_t>(v));
            out.routed.emplace_back(idx, std::move(*path));
        }
    }

    /** The grid this router searches. */
    const Grid &grid() const { return *grid_; }

  private:
    /** (f, g, vertex) open-list entry; see route() for the ordering. */
    using OpenEntry = std::tuple<int32_t, int32_t, VertexId>;

    const Grid *grid_;
    uint32_t stamp_ = 0;
    std::vector<uint32_t> seen_;    // stamp when visited this query
    std::vector<int32_t> dist_;
    std::vector<VertexId> parent_;
    std::vector<OpenEntry> open_;   // binary-heap storage, reused
    BlockedBitset claimed_;         // claim(): blocked + claimed so far
    // Failed-flood region cache, on only inside claim().
    bool cache_on_ = false;
    uint32_t flood_id_ = 0;          // id of the last failed flood
    uint32_t cache_first_flood_ = 1; // stamps below this are stale
    std::vector<uint32_t> region_stamp_; // latest failed flood per vertex

    /** Turn the failed-flood cache on with no region stamped. */
    void beginFloodCache();
};


inline AStarRouter::AStarRouter(const Grid &grid)
    : grid_(&grid),
      seen_(static_cast<size_t>(grid.numVertices()), 0),
      dist_(static_cast<size_t>(grid.numVertices()), 0),
      parent_(static_cast<size_t>(grid.numVertices()), -1),
      region_stamp_(static_cast<size_t>(grid.numVertices()), 0)
{}

inline void
AStarRouter::beginFloodCache()
{
    cache_on_ = true;
    if (flood_id_ == UINT32_MAX) {
        std::fill(region_stamp_.begin(), region_stamp_.end(), 0u);
        flood_id_ = 0;
    }
    cache_first_flood_ = flood_id_ + 1;
}

inline std::optional<Path>
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

} // namespace reference
} // namespace autobraid

#endif // AUTOBRAID_TESTS_ASTAR_REFERENCE_HPP
