/**
 * @file
 * Test-only reference for the stack-based path finder.
 *
 * This is the `StackPathFinder` the library used before the finder
 * peeled each instant's interference graph once: on an instant with
 * two or more components it copies each component's tasks, builds a
 * second interference graph over them, peels and routes that graph on
 * its own, and maps the local task indices back. It is copied
 * unchanged apart from `inline`, the namespace, the header and source
 * files joined into one, and its `peelPick()` call, which follows the
 * graph's signature (the graph now keeps the task areas itself).
 * `StackFinder.MatchesReference` compares the library's finder against
 * it path by path.
 */

#ifndef AUTOBRAID_TESTS_STACK_FINDER_REFERENCE_HPP
#define AUTOBRAID_TESTS_STACK_FINDER_REFERENCE_HPP

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/join_guard.hpp"
#include "route/astar.hpp"
#include "route/interference.hpp"
#include "route/stack_finder.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace reference {

/** The AutoBraid stack-based finder. */
class StackPathFinder : public PathFinder
{
  public:
    /**
     * @param grid the routing lattice
     * @param jobs worker threads for component-parallel routing; 1 =
     *        route every component on the calling thread. The outcome
     *        is byte-identical for every value.
     */
    explicit StackPathFinder(const Grid &grid, int jobs = 1);

    RoutingOutcome findPaths(const std::vector<CxTask> &tasks,
                             const BlockedBitset &blocked) override;

  private:
    /** Per-thread routing scratch (router + peel buffers). */
    struct RouteScratch
    {
        explicit RouteScratch(const Grid &grid) : router(grid) {}

        AStarRouter router;
        InterferenceGraph ig;
        std::vector<size_t> stack;
        /** Routing order: the residual, then the stack LIFO. */
        std::vector<size_t> order;
        /** Component's tasks, ascending global task index. */
        std::vector<CxTask> comp_tasks;
        /** Global task index per local task. */
        std::vector<size_t> comp_index;
        /** What this worker threw, rethrown after the join. */
        std::exception_ptr error;
    };

    /**
     * Peel + route @p tasks (whose interference graph @p ig is already
     * built) against @p blocked using scratch @p s, appending results
     * to @p out by index into @p tasks.
     */
    static void runStack(const std::vector<CxTask> &tasks,
                         const BlockedBitset &blocked,
                         InterferenceGraph &ig,
                         RouteScratch &s, RoutingOutcome &out);

    const Grid *grid_;
    int jobs_ = 1;

    // Persistent per-instant scratch, reused across findPaths calls.
    InterferenceGraph ig_;
    std::vector<size_t> comp_id_;
    std::vector<std::vector<size_t>> comp_members_;
    std::vector<RoutingOutcome> proposals_;
    /** Base mask merged with all accepted claims (merge phase). */
    BlockedBitset merged_;
    /** scratch_[0] serves the calling thread; one more per worker. */
    std::vector<std::unique_ptr<RouteScratch>> scratch_;
};

/** Instants smaller than this route sequentially even with jobs > 1:
 * thread spawn would cost more than the routing. Execution-only
 * gating — the outcome is identical either way. */
constexpr size_t kParallelTaskFloor = 16;

inline StackPathFinder::StackPathFinder(const Grid &grid, int jobs)
    : grid_(&grid), jobs_(jobs < 1 ? 1 : jobs)
{
    scratch_.push_back(std::make_unique<RouteScratch>(grid));
}

inline void
StackPathFinder::runStack(const std::vector<CxTask> &tasks,
                          const BlockedBitset &blocked,
                          InterferenceGraph &ig, RouteScratch &s,
                          RoutingOutcome &out)
{
    // Stage 1-2: peel max-degree nodes onto the stack until maxdeg <= 2.
    s.stack.clear();
    while (ig.maxDegree() > 2) {
        const size_t pick = ig.peelPick();
        s.stack.push_back(pick);
        ig.remove(pick);
    }
    AUTOBRAID_OBSERVE("route.stack_peeled",
                      static_cast<double>(s.stack.size()));

    // Stage 3: route the residual low-interference gates, smallest
    // bounding box first so short-distance pairs consume local resources.
    ig.activeNodes(s.order);
    std::stable_sort(s.order.begin(), s.order.end(),
                     [&tasks](size_t x, size_t y) {
                         return tasks[x].bbox.area() < tasks[y].bbox.area();
                     });

    // Stage 4: then the stack, LIFO.
    s.order.insert(s.order.end(), s.stack.rbegin(), s.stack.rend());
    s.router.claim(blocked, s.order,
                   [&](size_t idx, const BlockedBitset &mask) {
                       return s.router.route(tasks[idx].a, tasks[idx].b,
                                             mask);
                   },
                   out);
}

inline RoutingOutcome
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

    if (ncomp == 1) {
        // One component: the global stack discipline IS the
        // per-component one; route in place, no merge needed.
        runStack(tasks, blocked, ig_, *scratch_[0], outcome);
    } else {
        // Gather members per component (components are numbered by
        // smallest task index, members stay in ascending index order).
        if (comp_members_.size() < ncomp)
            comp_members_.resize(ncomp);
        for (size_t c = 0; c < ncomp; ++c)
            comp_members_[c].clear();
        for (size_t i = 0; i < tasks.size(); ++i)
            comp_members_[comp_id_[i]].push_back(i);
        proposals_.resize(ncomp);

        // Propose routes for one component against mask @p base: a
        // pure function of (component, base), so it can run on any
        // thread without changing the result.
        auto route_comp = [&](size_t c, RouteScratch &s,
                              const BlockedBitset &base,
                              RoutingOutcome &p) {
            s.comp_tasks.clear();
            s.comp_index.clear();
            for (const size_t i : comp_members_[c]) {
                s.comp_index.push_back(i);
                s.comp_tasks.push_back(tasks[i]);
            }
            p.routed.clear();
            p.failed.clear();
            s.ig.rebuild(s.comp_tasks);
            runStack(s.comp_tasks, base, s.ig, s, p);
            for (auto &rp : p.routed)
                rp.first = s.comp_index[rp.first];
            for (size_t &idx : p.failed)
                idx = s.comp_index[idx];
        };

        size_t nworkers = 1;
        if (jobs_ > 1 && tasks.size() >= kParallelTaskFloor)
            nworkers = std::min<size_t>(static_cast<size_t>(jobs_), ncomp);
        while (scratch_.size() < nworkers)
            scratch_.push_back(std::make_unique<RouteScratch>(*grid_));

        // Worker w proposes components w, w + nworkers, ...; the
        // calling thread is worker 0. A worker keeps what it throws,
        // the guard joins every spawned thread even when a spawn or
        // worker 0 fails, and the lowest worker's throw is rethrown
        // here once all have stopped.
        auto work = [&](size_t w) {
            RouteScratch &s = *scratch_[w];
            try {
                for (size_t c = w; c < ncomp; c += nworkers)
                    route_comp(c, s, blocked, proposals_[c]);
            } catch (...) {
                s.error = std::current_exception();
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
            if (std::exception_ptr e =
                    std::exchange(scratch_[w]->error, nullptr))
                std::rethrow_exception(e);

        // Merge in ascending component order. Proposals avoided the
        // base mask but not each other, so a proposal vertex already
        // set in merged_ is an accepted claim; when a later
        // component's path crosses one, re-route that whole component
        // against base + claims (still deterministic: the merge order
        // and accumulated mask never depend on the worker count).
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
                route_comp(c, *scratch_[0], merged_, p);
            }
            for (auto &rp : p.routed) {
                for (const VertexId v : rp.second.vertices)
                    merged_.set(static_cast<size_t>(v));
                outcome.routed.push_back(std::move(rp));
            }
            for (const size_t idx : p.failed)
                outcome.failed.push_back(idx);
        }
    }

    return outcome;
}

} // namespace reference
} // namespace autobraid

#endif // AUTOBRAID_TESTS_STACK_FINDER_REFERENCE_HPP
