/**
 * @file
 * CX interference graph (paper §3.3.2).
 *
 * Each node is one concurrent CX gate; an edge connects two gates whose
 * outer bounding boxes intersect. The stack-based path finder repeatedly
 * removes the maximum-degree node (ties broken by largest bounding-box
 * area) until the maximum degree is <= 2 — a relaxation of the LLG size-3
 * condition of Theorem 1.
 *
 * Adjacency is a word-packed bitmap (one n-bit row per node) rather
 * than per-node edge lists: the O(n^2) build writes one bit per pair
 * instead of 8-byte list entries on both endpoints, the pair tests
 * vectorize over flat coordinate arrays, and neighbour iteration walks
 * n/64 words per row. Dense instants (the Maslov fallback's all-to-all
 * layers) are exactly where edge lists blow up — half a million list
 * entries for a 1000-gate instant versus a 125 KB bitmap.
 *
 * Degrees only ever decrease after construction, so the peel is served
 * from per-degree bitsets over a fixed rank order. rebuild() ranks the
 * nodes once by (area descending, index ascending); bucket d holds one
 * bit per rank, set while that rank's node remains at degree d. The
 * peel victim (highest degree, then largest area, then smallest index)
 * is then the first set bit of the top bucket, found in O(n/64) words,
 * and each removal moves every live neighbour's bit down one bucket.
 * Live counts per degree keep maxDegree() an amortized O(1) walk of a
 * bound that only moves downward. Memory is one more n-bit row per
 * degree up to the initial maximum, at most the size of the adjacency.
 */

#ifndef AUTOBRAID_ROUTE_INTERFERENCE_HPP
#define AUTOBRAID_ROUTE_INTERFERENCE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "llg/bbox.hpp"

namespace autobraid {

/** Mutable interference graph over a fixed set of tasks. */
class InterferenceGraph
{
  public:
    /** An empty graph, ready for rebuild() (persistent-scratch use). */
    InterferenceGraph() = default;

    /** Build the O(n^2) bbox-intersection graph over @p tasks. */
    explicit InterferenceGraph(const std::vector<CxTask> &tasks);

    /**
     * Rebuild the graph over @p tasks in place, reusing the bitmap,
     * rank and bucket buffers from previous builds so a finder that
     * runs once per dispatch instant does not reallocate in steady
     * state.
     */
    void rebuild(const std::vector<CxTask> &tasks);

    /** Nodes still present. */
    size_t size() const { return active_count_; }
    bool empty() const { return active_count_ == 0; }

    /** True when node @p i has been removed. */
    bool removed(size_t i) const { return removed_[i] != 0; }

    /** Current degree of node @p i (edges to non-removed nodes only). */
    int degree(size_t i) const { return degree_[i]; }

    /** Bounding-box area of node @p i's task (0 for an empty box). */
    long area(size_t i) const { return area_[i]; }

    /** Largest degree among remaining nodes (0 when empty). */
    int maxDegree() const;

    /**
     * The stack-peel victim: the maximum-degree node with the largest
     * bounding-box area, ties broken by smallest index. It is the
     * lowest rank set in the maximum-degree bucket.
     */
    size_t peelPick() const;

    /** Remove node @p i, updating neighbour degrees. */
    void remove(size_t i);

    /** Remaining (non-removed) neighbours of @p i. */
    std::vector<size_t> activeNeighbors(size_t i) const;

    /** Remaining nodes in index order, into a caller-owned buffer. */
    void activeNodes(std::vector<size_t> &out) const;

    /**
     * Label the connected components of the *original* graph (removals
     * ignored): comp_id[i] is the component of node i, components
     * numbered by their smallest member index. Returns the component
     * count. Word-wise BFS: each frontier expansion ANDs the node's
     * adjacency row against the not-yet-visited bitmap, so labeling is
     * O(n^2/64) instead of O(n + E).
     */
    size_t components(std::vector<size_t> &comp_id) const;

  private:
    size_t n_ = 0;
    size_t stride_ = 0;              ///< words per adjacency row
    std::vector<uint64_t> rows_;     ///< n_ rows x stride_ words
    std::vector<uint64_t> active_;   ///< bit i set while node i remains
    std::vector<int> degree_;
    std::vector<long> area_;
    std::vector<uint8_t> removed_;
    size_t active_count_ = 0;
    // Flat bbox coordinates (SoA) so the rebuild pair tests vectorize;
    // hit_ is the per-row 0/1 byte scratch the bit packer consumes.
    std::vector<int> rmin_, rmax_, cmin_, cmax_;
    std::vector<uint8_t> hit_;
    // components() scratch (logically const query).
    mutable std::vector<uint64_t> unvisited_;
    mutable std::vector<size_t> bfs_;
    // Peel order: by_rank_[k] is the node of rank k, rank_ its inverse.
    std::vector<size_t> by_rank_;
    std::vector<size_t> rank_;
    // buckets_ holds one stride_-word rank bitset per degree, from 0
    // up to the initial maximum; live_count_[d] is bucket d's
    // popcount. Mutable bound: maxDegree() is logically const but
    // lowers it as buckets empty.
    std::vector<uint64_t> buckets_;
    std::vector<size_t> live_count_;
    mutable int max_degree_bound_ = 0;

    /**
     * Move node @p i's rank bit from bucket @p from to bucket @p to
     * (to < 0: drop it), keeping the live counts.
     */
    void moveBucket(size_t i, int from, int to);
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_INTERFERENCE_HPP
