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

std::optional<Path>
LatticeSurgeryFinder::buildRegion(const CxTask &task,
                                  const BlockedBitset &mask)
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
            if (!dead_.test(vi) && mask.test(vi))
                return std::nullopt;
        }

    const unsigned mask_a = liveCornerMask(task.a);
    const unsigned mask_b = liveCornerMask(task.b);
    if (mask_a == 0 || mask_b == 0)
        return std::nullopt;
    auto region = router_.route(task.a, task.b, mask, mask_a, mask_b);
    if (!region)
        return std::nullopt;

    // Region = bus path (path order, no vertex twice) + remaining live
    // corners of both tiles (ascending), deduplicated via the
    // in_region_ stamp bytes.
    std::vector<VertexId> &verts = region->vertices;
    for (VertexId v : verts)
        in_region_[static_cast<size_t>(v)] = 1;
    const auto bus_end = static_cast<long>(verts.size());
    for (const auto &corners : {corners_a, corners_b})
        for (VertexId v : corners) {
            const auto vi = static_cast<size_t>(v);
            if (dead_.test(vi) || in_region_[vi])
                continue;
            in_region_[vi] = 1;
            verts.push_back(v);
        }
    std::sort(verts.begin() + bus_end, verts.end());
    for (VertexId v : verts)
        in_region_[static_cast<size_t>(v)] = 0;
    return region;
}

RoutingOutcome
LatticeSurgeryFinder::findPaths(const std::vector<CxTask> &tasks,
                                const BlockedBitset &blocked)
{
    AUTOBRAID_SPAN("surgery.acquire");
    RoutingOutcome outcome;
    if (tasks.empty())
        return outcome;
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

    router_.claim(blocked, order_,
                  [&](size_t idx, const BlockedBitset &mask) {
                      return buildRegion(tasks[idx], mask);
                  },
                  outcome);
    std::sort(outcome.failed.begin(), outcome.failed.end());
    return outcome;
}

} // namespace autobraid
