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
#include <tuple>
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
     * @param confine optional box; when non-null the path may only use
     *        vertices inside or on it (LLG-local routing)
     * @param src_corners bitmask over the NW/NE/SW/SE corners of @p src
     *        usable as path start
     * @param dst_corners bitmask over the corners of @p dst usable as
     *        path end
     * @return the path, or std::nullopt when no free path exists.
     */
    std::optional<Path> route(const Cell &src, const Cell &dst,
                              const BlockedBitset &blocked,
                              const BBox *confine = nullptr,
                              unsigned src_corners = kAllCorners,
                              unsigned dst_corners = kAllCorners);

    /**
     * Start a monotone-mask epoch: until the next call, every route()
     * query must see a blocked mask that only ever gains blocked
     * vertices (the path-finder claim pattern). Within such an epoch a
     * failed flood visits exactly the free connected region of its
     * usable source corners, so the router stamps those vertices and
     * instantly fails later queries whose sources all sit in
     * already-flooded regions that contain no usable target corner.
     * Sound because masks only grow: two vertices connected now were
     * connected at every earlier flood, so their latest region stamps
     * are equal. Disabled for confined queries (their floods do not
     * cover the whole region).
     */
    void beginMaskEpoch();

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
    // Failed-flood region cache (see beginMaskEpoch).
    bool epoch_active_ = false;
    uint32_t flood_id_ = 0;          // id of the last failed flood
    uint32_t epoch_first_flood_ = 1; // stamps below this are stale
    std::vector<uint32_t> region_stamp_; // latest failed flood per vertex
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_ASTAR_HPP
