#include "sched/layout_optimizer.hpp"

#include <array>
#include <utility>

#include "common/error.hpp"
#include "route/interference.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

std::vector<PlannedSwap>
proposeSwaps(PathFinder &finder, const std::vector<CxTask> &failed_tasks,
             const Placement &placement, const BlockedBitset &blocked,
             const std::vector<uint8_t> &movable)
{
    AUTOBRAID_SPAN("sched.layout_optimizer");
    AUTOBRAID_OBSERVE("sched.layout_failed_tasks",
                      static_cast<double>(failed_tasks.size()));
    const Grid &grid = placement.grid();

    // Work only on tasks whose operands may move. Recover the operand
    // qubits from the current placement (ready CX gates are pairwise
    // qubit-disjoint, so cell -> qubit is unambiguous).
    std::vector<CxTask> tasks;
    std::vector<std::array<Qubit, 2>> qubits;
    for (const CxTask &t : failed_tasks) {
        const Qubit qa = placement.qubitAt(grid.cid(t.a));
        const Qubit qb = placement.qubitAt(grid.cid(t.b));
        require(qa != kNoQubit && qb != kNoQubit,
                "LayoutOptimizer: task endpoints have no qubits");
        if (!movable[static_cast<size_t>(qa)] ||
            !movable[static_cast<size_t>(qb)])
            continue;
        tasks.push_back(CxTask::make(t.gate, t.a, t.b));
        qubits.push_back({qa, qb});
    }
    if (tasks.size() < 2)
        return {};

    // A swap moves only the boxes of the two tasks it exchanges
    // between, and settles both, so an unsettled task keeps its
    // original box: the graph over the original boxes, with settled
    // tasks removed, is the interference among unsettled tasks.
    // boxes[] holds every task's box under the swaps accepted so far.
    InterferenceGraph ig(tasks);
    std::vector<BBox> boxes;
    boxes.reserve(tasks.size());
    for (const CxTask &t : tasks)
        boxes.push_back(t.bbox);

    // Interfering pairs that hold task a or task b, were their boxes
    // @p xa and @p xb: a swap between a and b changes no other pair.
    auto pairs_with = [&boxes](size_t a, size_t b, const BBox &xa,
                               const BBox &xb) {
        long count = xa.intersects(xb) ? 1 : 0;
        for (size_t k = 0; k < boxes.size(); ++k)
            if (k != a && k != b)
                count += (xa.intersects(boxes[k]) ? 1 : 0) +
                         (xb.intersects(boxes[k]) ? 1 : 0);
        return count;
    };

    std::vector<PlannedSwap> plan;
    std::vector<CxTask> swap_tasks;

    while (ig.maxDegree() > 0) {
        // Most interfering gate A (ties: largest box, smallest index),
        // and B, its neighbour that interferes with the most of the
        // rest (same ties).
        const size_t a = ig.peelPick();
        size_t b = a;
        for (const size_t j : ig.activeNeighbors(a))
            if (b == a || ig.degree(j) > ig.degree(b) ||
                (ig.degree(j) == ig.degree(b) &&
                 ig.area(j) > ig.area(b)))
                b = j;
        ig.remove(a);

        // Best of the four cross-pair exchanges: operand i of A trades
        // tiles with operand j of B, k = 2i + j.
        const std::array<Cell, 2> cells_a{tasks[a].a, tasks[a].b};
        const std::array<Cell, 2> cells_b{tasks[b].a, tasks[b].b};
        long best = pairs_with(a, b, boxes[a], boxes[b]);
        int best_combo = -1;
        BBox best_a, best_b;
        for (int k = 0; k < 4; ++k) {
            auto ta = cells_a;
            auto tb = cells_b;
            std::swap(ta[static_cast<size_t>(k >> 1)],
                      tb[static_cast<size_t>(k & 1)]);
            const BBox xa = outerBBox(ta[0], ta[1]);
            const BBox xb = outerBBox(tb[0], tb[1]);
            const long after = pairs_with(a, b, xa, xb);
            if (after < best) {
                best = after;
                best_combo = k;
                best_a = xa;
                best_b = xb;
            }
        }
        if (best_combo < 0)
            continue;

        // Tentatively accept; keep only if the whole set still routes.
        // Swap braids always run between the qubits' current tiles.
        const auto i = static_cast<size_t>(best_combo >> 1);
        const auto j = static_cast<size_t>(best_combo & 1);
        swap_tasks.push_back(
            CxTask::make(swap_tasks.size(), cells_a[i], cells_b[j]));
        RoutingOutcome outcome = finder.findPaths(swap_tasks, blocked);
        if (outcome.routed.size() != swap_tasks.size()) {
            swap_tasks.pop_back();
            continue;
        }
        plan.push_back(PlannedSwap{qubits[a][i], qubits[b][j], Path{}});
        for (auto &[idx, path] : outcome.routed)
            plan[idx].path = std::move(path);
        boxes[a] = best_a;
        boxes[b] = best_b;
        ig.remove(b);
    }

    if (!plan.empty())
        AUTOBRAID_COUNT("sched.layout_swaps_planned",
                        static_cast<long long>(plan.size()));
    return plan;
}

} // namespace autobraid
