#include "route/greedy_finder.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

GreedyPathFinder::GreedyPathFinder(const Grid &grid, GreedyOrder order,
                                   bool all_corners)
    : router_(grid),
      order_(order),
      corner_mask_(all_corners ? AStarRouter::kAllCorners
                               : AStarRouter::kFixedCorner)
{}

RoutingOutcome
GreedyPathFinder::findPaths(const std::vector<CxTask> &tasks,
                            const BlockedBitset &blocked)
{
    RoutingOutcome outcome;
    if (tasks.empty())
        return outcome;
    AUTOBRAID_SPAN("route.greedy_finder");
    AUTOBRAID_OBSERVE("route.greedy_tasks",
                      static_cast<double>(tasks.size()));
    require(blocked.size() ==
                static_cast<size_t>(router_.grid().numVertices()),
            "GreedyPathFinder: blocked mask does not cover the grid");

    order_scratch_.resize(tasks.size());
    std::iota(order_scratch_.begin(), order_scratch_.end(), 0);
    if (order_ == GreedyOrder::Distance) {
        std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                         [&tasks](size_t x, size_t y) {
                             return tasks[x].a.dist(tasks[x].b) <
                                    tasks[y].a.dist(tasks[y].b);
                         });
    } else if (order_ == GreedyOrder::Largest) {
        std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                         [&tasks](size_t x, size_t y) {
                             return tasks[x].a.dist(tasks[x].b) >
                                    tasks[y].a.dist(tasks[y].b);
                         });
    } else if (order_ == GreedyOrder::Criticality) {
        std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                         [&tasks](size_t x, size_t y) {
                             return tasks[x].priority >
                                    tasks[y].priority;
                         });
    }

    router_.claim(blocked, order_scratch_,
                  [&](size_t idx, const BlockedBitset &mask) {
                      return router_.route(tasks[idx].a, tasks[idx].b,
                                           mask, corner_mask_,
                                           corner_mask_);
                  },
                  outcome);
    return outcome;
}

} // namespace autobraid
