#include "lattice/occupancy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace autobraid {

namespace {

/** Min-heap order for (release time, vertex) expiry entries. */
struct ExpiryLater
{
    bool
    operator()(const std::pair<LatticeTime, VertexId> &a,
               const std::pair<LatticeTime, VertexId> &b) const
    {
        return a.first > b.first;
    }
};

} // namespace

TimedOccupancy::TimedOccupancy(const Grid &grid)
    : release_(static_cast<size_t>(grid.numVertices()), 0),
      counted_(static_cast<size_t>(grid.numVertices()), 0)
{}

void
TimedOccupancy::reserve(const std::vector<VertexId> &path,
                        LatticeTime until)
{
    for (VertexId v : path) {
        const auto vi = static_cast<size_t>(v);
        auto &slot = release_[vi];
        if (until <= slot)
            continue;
        slot = until;
        // Reservations ending at or before the advanced front never
        // contribute to the busy count (freeAt is already true there).
        if (until <= advanced_t_)
            continue;
        if (!counted_[vi]) {
            counted_[vi] = 1;
            ++busy_count_;
        }
        expiry_.emplace_back(until, v);
        std::push_heap(expiry_.begin(), expiry_.end(), ExpiryLater{});
    }
}

const std::vector<VertexId> &
TimedOccupancy::advanceTo(LatticeTime t)
{
    require(t >= advanced_t_,
            "TimedOccupancy::advanceTo: time moved backwards");
    freed_.clear();
    advanced_t_ = t;
    while (!expiry_.empty() && expiry_.front().first <= t) {
        const VertexId v = expiry_.front().second;
        std::pop_heap(expiry_.begin(), expiry_.end(), ExpiryLater{});
        expiry_.pop_back();
        const auto vi = static_cast<size_t>(v);
        // Stale entry when the reservation was extended past t (the
        // live entry at the new release time is still in the heap) or
        // when a duplicate entry already freed the vertex.
        if (counted_[vi] && release_[vi] <= t) {
            counted_[vi] = 0;
            --busy_count_;
            freed_.push_back(v);
        }
    }
    return freed_;
}

void
TimedOccupancy::clear()
{
    std::fill(release_.begin(), release_.end(), LatticeTime{0});
    std::fill(counted_.begin(), counted_.end(), uint8_t{0});
    expiry_.clear();
    freed_.clear();
    advanced_t_ = 0;
    busy_count_ = 0;
}

size_t
TimedOccupancy::busyCount(LatticeTime t) const
{
    if (t == advanced_t_)
        return busy_count_;
    size_t n = 0;
    for (LatticeTime r : release_)
        if (r > t)
            ++n;
    return n;
}

} // namespace autobraid
