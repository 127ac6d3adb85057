/**
 * @file
 * A* search for braiding paths.
 *
 * A braiding path may start at any of the 16 corner-to-corner
 * configurations between two tiles (paper Fig. 5), so the search is
 * multi-source (all free corners of the source tile) and multi-target
 * (all corners of the target tile). Cost is the number of vertices
 * consumed; the heuristic is the minimum Manhattan distance to any target
 * corner, which is admissible, so returned paths consume the minimum
 * number of free vertices.
 */

#ifndef AUTOBRAID_ROUTE_ASTAR_HPP
#define AUTOBRAID_ROUTE_ASTAR_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "lattice/geometry.hpp"
#include "route/blocked_bitset.hpp"
#include "route/path.hpp"

namespace autobraid {

/** Materialize a blocked bitset from a predicate (tests, tools). */
template <typename Pred>
BlockedBitset
materializeBlocked(const Grid &grid, Pred &&pred)
{
    BlockedBitset bits(static_cast<size_t>(grid.numVertices()));
    for (VertexId v = 0; v < grid.numVertices(); ++v)
        if (pred(v))
            bits.set(static_cast<size_t>(v));
    return bits;
}

/** All-free blocked bitset for @p grid (tests, benches). */
BlockedBitset noBlockedVertices(const Grid &grid);

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

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_ASTAR_HPP
