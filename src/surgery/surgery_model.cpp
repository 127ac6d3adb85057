#include "surgery/surgery_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

LatticeSurgeryFinder::LatticeSurgeryFinder(
    const Grid &grid, const std::vector<VertexId> &dead_vertices)
    : grid_(&grid),
      router_(grid),
      dead_(static_cast<size_t>(grid.numVertices())),
      in_region_(static_cast<size_t>(grid.numVertices()), 0)
{
    for (VertexId v : dead_vertices) {
        require(v >= 0 && v < grid.numVertices(),
                "LatticeSurgeryFinder: dead vertex out of range");
        dead_.set(static_cast<size_t>(v));
    }
}

unsigned
LatticeSurgeryFinder::liveCornerMask(const Cell &cell) const
{
    const auto ids = grid_->cornerIds(cell);
    unsigned mask = 0;
    for (size_t i = 0; i < ids.size(); ++i)
        if (!dead_.test(static_cast<size_t>(ids[i])))
            mask |= 1u << i;
    return mask;
}

bool
LatticeSurgeryFinder::buildRegion(const CxTask &task, Path &out)
{
    // A merge needs every live corner of both patches: the merged
    // boundary runs along the tiles, not just along the bus. Any
    // occupied live corner means another region already abuts this
    // patch — the gate must wait.
    const auto corners_a = grid_->cornerIds(task.a);
    const auto corners_b = grid_->cornerIds(task.b);
    for (const auto &corners : {corners_a, corners_b})
        for (VertexId v : corners) {
            const auto vi = static_cast<size_t>(v);
            if (!dead_.test(vi) && unavailable_.test(vi))
                return false;
        }

    const unsigned mask_a = liveCornerMask(task.a);
    const unsigned mask_b = liveCornerMask(task.b);
    if (mask_a == 0 || mask_b == 0)
        return false;
    const auto bus = router_.route(task.a, task.b, unavailable_,
                                   nullptr, mask_a, mask_b);
    if (!bus)
        return false;

    // Region = bus path (path order) + remaining live corners of both
    // tiles (ascending), deduplicated via the in_region_ stamp bytes.
    region_.clear();
    for (VertexId v : bus->vertices) {
        if (in_region_[static_cast<size_t>(v)])
            continue;
        in_region_[static_cast<size_t>(v)] = 1;
        region_.push_back(v);
    }
    const auto bus_end = static_cast<long>(region_.size());
    for (const auto &corners : {corners_a, corners_b})
        for (VertexId v : corners) {
            const auto vi = static_cast<size_t>(v);
            if (dead_.test(vi) || in_region_[vi])
                continue;
            in_region_[vi] = 1;
            region_.push_back(v);
        }
    std::sort(region_.begin() + bus_end, region_.end());
    for (VertexId v : region_)
        in_region_[static_cast<size_t>(v)] = 0;
    out.vertices = region_;
    return true;
}

RoutingOutcome
LatticeSurgeryFinder::findPaths(const std::vector<CxTask> &tasks,
                                const BlockedBitset &blocked)
{
    AUTOBRAID_SPAN("surgery.acquire");
    RoutingOutcome outcome;
    if (tasks.empty())
        return outcome;
    unavailable_ = blocked;
    // Claims only ever add blocked vertices within this call, so
    // failed bus floods can be cached for the rest of it.
    router_.beginMaskEpoch();

    // Most-critical merges first; index breaks ties deterministically.
    order_.resize(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i)
        order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [&tasks](size_t x, size_t y) {
                  if (tasks[x].priority != tasks[y].priority)
                      return tasks[x].priority > tasks[y].priority;
                  return x < y;
              });

    Path region;
    for (size_t idx : order_) {
        if (!buildRegion(tasks[idx], region)) {
            outcome.failed.push_back(idx);
            continue;
        }
        for (VertexId v : region.vertices)
            unavailable_.set(static_cast<size_t>(v));
        outcome.routed.emplace_back(idx, region);
    }
    std::sort(outcome.failed.begin(), outcome.failed.end());
    outcome.ratio = static_cast<double>(outcome.routed.size()) /
                    static_cast<double>(tasks.size());
    return outcome;
}

} // namespace autobraid
