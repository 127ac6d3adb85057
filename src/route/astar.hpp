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
 *
 * Most queries of a compile fail, so a query first asks whether it can
 * succeed at all: a depth-first flood from the usable free source
 * corners, on a plain stack, stops at the first usable target corner it
 * reaches. Only then does the A* run. The heuristic is consistent (each
 * corner's Manhattan distance changes by at most one per step), so a
 * failed A* would have expanded every vertex of the sources' free
 * region exactly once and nothing else: the flood visits that same set,
 * and a miss reports its size as the A* expansions it stood for.
 */

#ifndef AUTOBRAID_ROUTE_ASTAR_HPP
#define AUTOBRAID_ROUTE_ASTAR_HPP

#include <cstdint>
#include <optional>
#include <span>
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
 * parents, the flood's list and stack, and the open list) are owned by
 * the instance and stamped per query, so repeated route() calls do not
 * allocate. The stamp advances once for the flood and once more for a
 * search, and wraps by clearing the stamps.
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
    /**
     * Open-list entry. The key packs f into its high 32 bits and
     * UINT32_MAX - g into its low 32 bits, so the smaller key expands
     * first: smaller f, then larger g (keeps the frontier tight).
     */
    struct OpenEntry
    {
        uint64_t key;
        VertexId v;
    };

    const Grid *grid_;
    int rows_;  // tile rows; vertex rows run 0..rows_
    int cols_;  // tile columns; vertex columns run 0..cols_
    int vcols_; // vertex columns, the row stride of a vertex id
    uint32_t stamp_ = 0;
    std::vector<uint32_t> seen_;    // stamp when visited this query
    std::vector<int32_t> dist_;
    std::vector<VertexId> parent_;
    std::vector<Vertex> coord_;     // (row, column) of each vertex id
    std::vector<VertexId> flood_;   // vertices the flood visited
    std::vector<VertexId> stack_;   // the flood's depth-first stack
    std::vector<OpenEntry> open_;   // binary-heap storage, reused
    BlockedBitset claimed_;         // claim(): blocked + claimed so far
    // Failed-flood region cache, on only inside claim().
    bool cache_on_ = false;
    uint32_t flood_id_ = 0;          // id of the last failed flood
    uint32_t cache_first_flood_ = 1; // stamps below this are stale
    std::vector<uint32_t> region_stamp_; // latest failed flood per vertex

    /** Turn the failed-flood cache on with no region stamped. */
    void beginFloodCache();

    /** The next visit stamp; clears every stamp when it would wrap. */
    uint32_t nextStamp();

    /** Id of corner @p i (NW, NE, SW, SE) of tile @p cell. */
    VertexId
    cornerId(const Cell &cell, int i) const
    {
        return (cell.r + (i >> 1)) * vcols_ + cell.c + (i & 1);
    }

    /**
     * True when the failed-flood cache proves the query cannot
     * succeed: every usable free source corner sits in a region a
     * failed flood of this claim explored, and no usable free target
     * corner carries one of those regions' stamps.
     */
    bool regionCacheRejects(const Cell &src, const Cell &dst,
                            const BlockedBitset &blocked,
                            unsigned src_corners,
                            unsigned dst_corners) const;

    /**
     * Flood the free region of the usable source corners depth-first,
     * trying moves toward @p dst first. Returns true at the first
     * usable free target corner it visits; otherwise flood_ ends up
     * holding exactly the region.
     */
    bool floodReaches(const Cell &src, const Cell &dst,
                      const BlockedBitset &blocked, unsigned src_corners,
                      unsigned dst_corners);

    /** The A* proper, run once floodReaches() has found a target. */
    Path search(const Cell &src, const Cell &dst,
                const BlockedBitset &blocked, unsigned src_corners,
                unsigned dst_corners);
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_ASTAR_HPP
