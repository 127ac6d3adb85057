/**
 * @file
 * Test-only reference for the layout optimizer.
 *
 * This is the `LayoutOptimizer` class the library used before the
 * optimizer ran on the interference graph: it rebuilds every task's
 * box, recounts the degrees by hand and scores each candidate exchange
 * by recounting every pair of boxes before and after it, and it routes
 * its swap sets with its own stack finder. It is copied unchanged
 * apart from `inline`, the namespace, and the header and source files
 * joined into one. `LayoutOptimizer.MatchesReference` compares the
 * library's `proposeSwaps` against it swap by swap.
 */

#ifndef AUTOBRAID_TESTS_LAYOUT_REFERENCE_HPP
#define AUTOBRAID_TESTS_LAYOUT_REFERENCE_HPP

#include <sys/types.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "place/placement.hpp"
#include "route/stack_finder.hpp"
#include "sched/layout_optimizer.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace reference {

/** Proposes SWAP sets that untangle congested layouts. */
class LayoutOptimizer
{
  public:
    explicit LayoutOptimizer(const Grid &grid);

    /**
     * Propose a simultaneously routable swap set for the unroutable
     * @p failed_tasks.
     *
     * @param failed_tasks CX gates the path finder could not place
     * @param placement current (pre-swap) qubit layout
     * @param blocked dead vertices and those held by in-flight regions
     * @param movable false for qubits that may not move (in-flight)
     * @return swaps with concrete paths; possibly empty.
     */
    std::vector<PlannedSwap> propose(
        const std::vector<CxTask> &failed_tasks,
        const Placement &placement, const BlockedBitset &blocked,
        const std::vector<uint8_t> &movable);

  private:
    StackPathFinder finder_;

    /** Count pairwise bbox interferences under hypothetical cells. */
    static long interferenceCount(const std::vector<BBox> &boxes);
};


inline
LayoutOptimizer::LayoutOptimizer(const Grid &grid) : finder_(grid) {}

inline long
LayoutOptimizer::interferenceCount(const std::vector<BBox> &boxes)
{
    long count = 0;
    for (size_t i = 0; i < boxes.size(); ++i)
        for (size_t j = i + 1; j < boxes.size(); ++j)
            if (boxes[i].intersects(boxes[j]))
                ++count;
    return count;
}

inline std::vector<PlannedSwap>
LayoutOptimizer::propose(const std::vector<CxTask> &failed_tasks,
                         const Placement &placement,
                         const BlockedBitset &blocked,
                         const std::vector<uint8_t> &movable)
{
    AUTOBRAID_SPAN("sched.layout_optimizer");
    AUTOBRAID_OBSERVE("sched.layout_failed_tasks",
                      static_cast<double>(failed_tasks.size()));
    const Grid &grid = placement.grid();

    // Work only on tasks whose operands may move. Recover the operand
    // qubits from the current placement (ready CX gates are pairwise
    // qubit-disjoint, so cell -> qubit is unambiguous).
    struct Entry
    {
        Qubit qa, qb;
        CellId ca, cb;
    };
    std::vector<Entry> entries;
    for (const CxTask &t : failed_tasks) {
        const Qubit qa = placement.qubitAt(grid.cid(t.a));
        const Qubit qb = placement.qubitAt(grid.cid(t.b));
        require(qa != kNoQubit && qb != kNoQubit,
                "LayoutOptimizer: task endpoints have no qubits");
        if (!movable[static_cast<size_t>(qa)] ||
            !movable[static_cast<size_t>(qb)])
            continue;
        entries.push_back(
            Entry{qa, qb, grid.cid(t.a), grid.cid(t.b)});
    }
    if (entries.size() < 2)
        return {};

    // Hypothetical post-swap cell of every involved qubit.
    std::vector<CellId> hcell(
        static_cast<size_t>(placement.numQubits()), -1);
    for (const Entry &e : entries) {
        hcell[static_cast<size_t>(e.qa)] = e.ca;
        hcell[static_cast<size_t>(e.qb)] = e.cb;
    }

    auto boxes_now = [&]() {
        std::vector<BBox> boxes;
        boxes.reserve(entries.size());
        for (const Entry &e : entries)
            boxes.push_back(outerBBox(
                grid.cell(hcell[static_cast<size_t>(e.qa)]),
                grid.cell(hcell[static_cast<size_t>(e.qb)])));
        return boxes;
    };

    std::vector<uint8_t> task_used(entries.size(), 0);
    std::vector<std::pair<Qubit, Qubit>> accepted;
    std::vector<Path> accepted_paths;

    // Swap braids always run between the qubits' *current* tiles.
    auto route_accepted = [&](std::vector<Path> &paths_out) {
        std::vector<CxTask> swap_tasks;
        swap_tasks.reserve(accepted.size());
        for (size_t i = 0; i < accepted.size(); ++i) {
            const auto &[qa, qb] = accepted[i];
            swap_tasks.push_back(CxTask::make(
                i, placement.cellOf(qa), placement.cellOf(qb)));
        }
        auto outcome = finder_.findPaths(swap_tasks, blocked);
        if (outcome.routed.size() != swap_tasks.size())
            return false;
        paths_out.assign(accepted.size(), Path{});
        for (auto &[idx, path] : outcome.routed)
            paths_out[idx] = std::move(path);
        return true;
    };

    for (size_t safety = 0; safety < entries.size() + 4; ++safety) {
        const auto boxes = boxes_now();

        // Degrees among unused tasks only.
        std::vector<int> degree(entries.size(), 0);
        for (size_t i = 0; i < entries.size(); ++i) {
            if (task_used[i])
                continue;
            for (size_t j = i + 1; j < entries.size(); ++j) {
                if (task_used[j])
                    continue;
                if (boxes[i].intersects(boxes[j])) {
                    ++degree[i];
                    ++degree[j];
                }
            }
        }

        // Most interfering gate A (ties: largest bounding box).
        ssize_t a = -1;
        for (size_t i = 0; i < entries.size(); ++i) {
            if (task_used[i] || degree[i] == 0)
                continue;
            if (a < 0 || degree[i] > degree[static_cast<size_t>(a)] ||
                (degree[i] == degree[static_cast<size_t>(a)] &&
                 boxes[i].area() >
                     boxes[static_cast<size_t>(a)].area()))
                a = static_cast<ssize_t>(i);
        }
        if (a < 0)
            break;

        // B: interferes with A and with the most of the rest.
        ssize_t b = -1;
        for (size_t j = 0; j < entries.size(); ++j) {
            if (task_used[j] || j == static_cast<size_t>(a))
                continue;
            if (!boxes[static_cast<size_t>(a)].intersects(boxes[j]))
                continue;
            if (b < 0 || degree[j] > degree[static_cast<size_t>(b)] ||
                (degree[j] == degree[static_cast<size_t>(b)] &&
                 boxes[j].area() >
                     boxes[static_cast<size_t>(b)].area()))
                b = static_cast<ssize_t>(j);
        }
        if (b < 0) {
            task_used[static_cast<size_t>(a)] = 1;
            continue;
        }

        const Entry &ea = entries[static_cast<size_t>(a)];
        const Entry &eb = entries[static_cast<size_t>(b)];
        const long before = interferenceCount(boxes);

        // Best of the four cross-pair exchanges.
        const std::pair<Qubit, Qubit> combos[4] = {
            {ea.qa, eb.qa}, {ea.qa, eb.qb},
            {ea.qb, eb.qa}, {ea.qb, eb.qb}};
        long best_after = before;
        int best_combo = -1;
        for (int k = 0; k < 4; ++k) {
            const auto [qa, qb] = combos[k];
            std::swap(hcell[static_cast<size_t>(qa)],
                      hcell[static_cast<size_t>(qb)]);
            const long after = interferenceCount(boxes_now());
            std::swap(hcell[static_cast<size_t>(qa)],
                      hcell[static_cast<size_t>(qb)]);
            if (after < best_after) {
                best_after = after;
                best_combo = k;
            }
        }
        if (best_combo < 0) {
            task_used[static_cast<size_t>(a)] = 1;
            continue;
        }

        // Tentatively accept; keep only if the whole set still routes.
        const auto [qa, qb] = combos[best_combo];
        std::swap(hcell[static_cast<size_t>(qa)],
                  hcell[static_cast<size_t>(qb)]);
        accepted.emplace_back(qa, qb);
        std::vector<Path> paths;
        if (route_accepted(paths)) {
            accepted_paths = std::move(paths);
            task_used[static_cast<size_t>(a)] = 1;
            task_used[static_cast<size_t>(b)] = 1;
        } else {
            accepted.pop_back();
            std::swap(hcell[static_cast<size_t>(qa)],
                      hcell[static_cast<size_t>(qb)]);
            task_used[static_cast<size_t>(a)] = 1;
        }
    }

    std::vector<PlannedSwap> plan;
    plan.reserve(accepted.size());
    for (size_t i = 0; i < accepted.size(); ++i)
        plan.push_back(PlannedSwap{accepted[i].first,
                                   accepted[i].second,
                                   std::move(accepted_paths[i])});
    if (!plan.empty())
        AUTOBRAID_COUNT("sched.layout_swaps_planned",
                        static_cast<long long>(plan.size()));
    return plan;
}

} // namespace reference
} // namespace autobraid

#endif // AUTOBRAID_TESTS_LAYOUT_REFERENCE_HPP
