/**
 * @file
 * Routing-vertex occupancy tracking for the event-driven scheduler:
 * TimedOccupancy keeps per-vertex release times, since braids hold
 * their vertices for the CX duration and time advances monotonically.
 * A live busy counter plus expiry buckets keyed by release time make
 * the per-instant busy query O(1) instead of a scan of all (L+1)^2
 * vertices.
 */

#ifndef AUTOBRAID_LATTICE_OCCUPANCY_HPP
#define AUTOBRAID_LATTICE_OCCUPANCY_HPP

#include <cstdint>
#include <vector>

#include "lattice/geometry.hpp"

namespace autobraid {

/** Duration/time in surface-code cycles (mirrors circuit/dag.hpp). */
using LatticeTime = uint64_t;

/**
 * Per-vertex release times. A vertex is free at instant t when its
 * recorded release time is <= t. Suited to a scheduler whose reservations
 * always start "now": overlapping windows then reduce to a max of release
 * times.
 *
 * The busy count is maintained incrementally: reservations that cross
 * the advanced front bump a live counter and enqueue an expiry entry in
 * a min-heap keyed by release time; advanceTo() pops everything that
 * expired and reports the newly freed vertices so callers (the
 * scheduler's per-instant blocked mask) can update derived state in
 * O(changed) instead of O(V).
 */
class TimedOccupancy
{
  public:
    explicit TimedOccupancy(const Grid &grid);

    /** True when @p v is free at instant @p t. */
    bool freeAt(VertexId v, LatticeTime t) const
    {
        return release_[static_cast<size_t>(v)] <= t;
    }

    /** Reserve every vertex of @p path until @p until. */
    void reserve(const std::vector<VertexId> &path, LatticeTime until);

    /** Release time of @p v (0 when never reserved). */
    LatticeTime releaseTime(VertexId v) const
    {
        return release_[static_cast<size_t>(v)];
    }

    /**
     * Number of vertices still reserved at instant @p t. O(1) when
     * @p t equals the advanced front (advanceTo(t) was called);
     * otherwise falls back to the O(V) scan for arbitrary queries.
     */
    size_t busyCount(LatticeTime t) const;

    /**
     * Advance the busy-tracking front to instant @p t (monotone; raises
     * on regression) and return the vertices whose reservations expired
     * in (previous front, t]. The returned reference stays valid until
     * the next advanceTo() call.
     */
    const std::vector<VertexId> &advanceTo(LatticeTime t);

    /** The instant the busy tracking has been advanced to. */
    LatticeTime advancedTime() const { return advanced_t_; }

    /** Total vertices in the grid. */
    size_t totalCount() const { return release_.size(); }

    /**
     * Drop every reservation and rewind the advanced front to 0, so
     * the instance can be reused for a fresh scheduling run (the
     * backend reset path between per-backend compilations).
     */
    void clear();

  private:
    std::vector<LatticeTime> release_;
    /** 1 while the vertex contributes to busy_count_. */
    std::vector<uint8_t> counted_;
    /**
     * Min-heap of (release time, vertex) expiry entries. Extending a
     * reservation leaves the old entry stale; advanceTo() skips entries
     * whose recorded time no longer matches the live release time.
     */
    std::vector<std::pair<LatticeTime, VertexId>> expiry_;
    std::vector<VertexId> freed_;
    LatticeTime advanced_t_ = 0;
    size_t busy_count_ = 0;
};

} // namespace autobraid

#endif // AUTOBRAID_LATTICE_OCCUPANCY_HPP
