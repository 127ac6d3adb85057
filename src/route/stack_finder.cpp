#include "route/stack_finder.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/join_guard.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

namespace {

/** Instants smaller than this route sequentially even with jobs > 1:
 * thread spawn would cost more than the routing. Execution-only
 * gating — the outcome is identical either way. */
constexpr size_t kParallelTaskFloor = 16;

} // namespace

StackPathFinder::StackPathFinder(const Grid &grid, int jobs)
    : grid_(&grid), jobs_(jobs < 1 ? 1 : jobs)
{
    workers_.push_back(std::make_unique<Worker>(grid));
}

RoutingOutcome
StackPathFinder::findPaths(const std::vector<CxTask> &tasks,
                           const BlockedBitset &blocked)
{
    RoutingOutcome outcome;
    if (tasks.empty())
        return outcome;
    AUTOBRAID_SPAN("route.stack_finder");
    AUTOBRAID_OBSERVE("route.stack_tasks",
                      static_cast<double>(tasks.size()));
    require(blocked.size() ==
                static_cast<size_t>(grid_->numVertices()),
            "StackPathFinder: blocked mask does not cover the grid");

    ig_.rebuild(tasks);
    const size_t ncomp = ig_.components(comp_id_);
    AUTOBRAID_OBSERVE("route.components",
                      static_cast<double>(ncomp));

    // Stage 1-2: peel max-degree nodes onto the stack until maxdeg <= 2.
    stack_.clear();
    while (ig_.maxDegree() > 2) {
        const size_t pick = ig_.peelPick(tasks);
        stack_.push_back(pick);
        ig_.remove(pick);
    }
    AUTOBRAID_OBSERVE("route.stack_peeled",
                      static_cast<double>(stack_.size()));

    // Stage 3: route the residual low-interference gates, smallest
    // bounding box first so short-distance pairs consume local resources.
    ig_.activeNodes(order_);
    std::stable_sort(order_.begin(), order_.end(),
                     [&tasks](size_t x, size_t y) {
                         return tasks[x].bbox.area() < tasks[y].bbox.area();
                     });

    // Stage 4: then the stack, LIFO.
    order_.insert(order_.end(), stack_.rbegin(), stack_.rend());

    // Claim @p order's tasks with @p router against mask @p base into
    // @p out, replacing what it held.
    auto claim = [&tasks](AStarRouter &router, const BlockedBitset &base,
                          std::span<const size_t> order,
                          RoutingOutcome &out) {
        out.routed.clear();
        out.failed.clear();
        router.claim(base, order,
                     [&](size_t idx, const BlockedBitset &mask) {
                         return router.route(tasks[idx].a, tasks[idx].b,
                                             mask);
                     },
                     out);
    };
    if (ncomp == 1) {
        claim(workers_[0]->router, blocked, order_, outcome);
        return outcome;
    }

    // Group the order by component in one counting pass that keeps
    // the order within each: count, prefix-sum to each component's
    // end, then fill backwards, leaving comp_start_[c] at c's start.
    comp_start_.assign(ncomp + 1, 0);
    for (const size_t i : order_)
        ++comp_start_[comp_id_[i]];
    for (size_t c = 1; c <= ncomp; ++c)
        comp_start_[c] += comp_start_[c - 1];
    by_comp_.resize(order_.size());
    for (auto it = order_.rbegin(); it != order_.rend(); ++it)
        by_comp_[--comp_start_[comp_id_[*it]]] = *it;
    auto slice = [this](size_t c) {
        return std::span<const size_t>(by_comp_).subspan(
            comp_start_[c], comp_start_[c + 1] - comp_start_[c]);
    };
    proposals_.resize(ncomp);

    size_t nworkers = 1;
    if (jobs_ > 1 && tasks.size() >= kParallelTaskFloor)
        nworkers = std::min<size_t>(static_cast<size_t>(jobs_), ncomp);
    while (workers_.size() < nworkers)
        workers_.push_back(std::make_unique<Worker>(*grid_));

    // Worker w proposes components w, w + nworkers, ... against the
    // base mask, reporting into the caller's telemetry sink; the
    // calling thread is worker 0. A worker keeps what it throws, the
    // guard joins every spawned thread even when a spawn or worker 0
    // fails, and the lowest worker's throw is rethrown here once all
    // have stopped.
    telemetry::Telemetry *const sink = telemetry::current();
    auto work = [&](size_t w) {
        Worker &worker = *workers_[w];
        const telemetry::TelemetryScope scope(sink);
        try {
            for (size_t c = w; c < ncomp; c += nworkers)
                claim(worker.router, blocked, slice(c), proposals_[c]);
        } catch (...) {
            worker.error = std::current_exception();
        }
    };
    {
        JoinGuard guard;
        guard.threads.reserve(nworkers - 1);
        for (size_t w = 1; w < nworkers; ++w)
            guard.threads.emplace_back(work, w);
        work(0);
    }
    for (size_t w = 0; w < nworkers; ++w)
        if (std::exception_ptr e = std::exchange(workers_[w]->error, nullptr))
            std::rethrow_exception(e);

    // Merge in ascending component order. Proposals avoided the base
    // mask but not each other, so a proposal vertex already set in
    // merged_ is an accepted claim; when a later component's path
    // crosses one, re-claim that component's slice against base +
    // claims (still deterministic: the merge order and accumulated
    // mask never depend on the worker count).
    merged_ = blocked;
    for (size_t c = 0; c < ncomp; ++c) {
        RoutingOutcome &p = proposals_[c];
        bool conflict = false;
        for (const auto &rp : p.routed) {
            for (const VertexId v : rp.second.vertices)
                if (merged_[v]) {
                    conflict = true;
                    break;
                }
            if (conflict)
                break;
        }
        if (conflict) {
            AUTOBRAID_COUNT("route.merge_repairs");
            claim(workers_[0]->router, merged_, slice(c), p);
        }
        for (auto &rp : p.routed) {
            for (const VertexId v : rp.second.vertices)
                merged_.set(static_cast<size_t>(v));
            outcome.routed.push_back(std::move(rp));
        }
        for (const size_t idx : p.failed)
            outcome.failed.push_back(idx);
    }
    return outcome;
}

} // namespace autobraid
