#include "place/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"

namespace autobraid {
namespace {

/** Pairwise-swap refinement passes per bisection. */
constexpr int kRefineRounds = 2;

/** Weighted degree of @p q restricted to nodes marked in @p in_scope. */
long
scopedDegree(const CouplingGraph &g, Qubit q,
             const std::vector<int8_t> &in_scope)
{
    long d = 0;
    for (const auto &[n, w] : g.neighbors(q))
        if (in_scope[static_cast<size_t>(n)] >= 0)
            d += w;
    return d;
}

/** A rectangular region of tiles, inclusive bounds. */
struct Region
{
    int r0, c0, r1, c1;

    int rows() const { return r1 - r0 + 1; }
    int cols() const { return c1 - c0 + 1; }
    long cells() const { return static_cast<long>(rows()) * cols(); }
};

void
placeRecursive(const CouplingGraph &coupling, const Grid &grid,
               const std::vector<Qubit> &nodes, const Region &region,
               Rng &rng, int leaf_cells, std::vector<CellId> &out)
{
    if (nodes.empty())
        return;
    require(static_cast<long>(nodes.size()) <= region.cells(),
            "partitioner: region overflow");
    if (region.cells() <= std::max(1, leaf_cells)) {
        // Leaf: assign in arbitrary (node) order, row-major.
        size_t i = 0;
        for (int r = region.r0; r <= region.r1; ++r) {
            for (int c = region.c0; c <= region.c1; ++c) {
                if (i >= nodes.size())
                    return;
                out[static_cast<size_t>(nodes[i++])] =
                    grid.cid(Cell{r, c});
            }
        }
        return;
    }

    // Split the longer axis.
    Region left = region, right = region;
    if (region.rows() >= region.cols()) {
        const int mid = region.r0 + region.rows() / 2 - 1;
        left.r1 = mid;
        right.r0 = mid + 1;
    } else {
        const int mid = region.c0 + region.cols() / 2 - 1;
        left.c1 = mid;
        right.c0 = mid + 1;
    }

    // Proportional qubit budget, clamped so both halves fit.
    const double frac = static_cast<double>(left.cells()) /
                        static_cast<double>(region.cells());
    long ls = std::lround(frac * static_cast<double>(nodes.size()));
    ls = std::max(ls, static_cast<long>(nodes.size()) - right.cells());
    ls = std::min(ls, std::min(left.cells(),
                               static_cast<long>(nodes.size())));

    auto [lhs, rhs] =
        bisect(coupling, nodes, static_cast<size_t>(ls), rng);
    placeRecursive(coupling, grid, lhs, left, rng, leaf_cells, out);
    placeRecursive(coupling, grid, rhs, right, rng, leaf_cells, out);
}

} // namespace

std::pair<std::vector<Qubit>, std::vector<Qubit>>
bisect(const CouplingGraph &coupling, const std::vector<Qubit> &nodes,
       size_t left_size, Rng &rng)
{
    require(left_size <= nodes.size(), "bisect: left size too large");
    const size_t nq = static_cast<size_t>(coupling.numQubits());

    // -1: out of scope, 0: right, 1: left.
    std::vector<int8_t> side(nq, -1);
    for (Qubit q : nodes)
        side[static_cast<size_t>(q)] = 0;

    if (left_size == 0 || left_size == nodes.size()) {
        if (left_size == 0)
            return {{}, nodes};
        return {nodes, {}};
    }

    // Greedy graph growing from the best-connected seed (GGGP). A lazy
    // max-heap tracks each candidate's connection weight to the grown
    // side; stale entries are discarded on pop.
    std::vector<long> gain(nq, 0);
    using HeapEntry = std::pair<long, Qubit>;
    std::priority_queue<HeapEntry> heap;

    Qubit seed = nodes[rng.index(nodes.size())];
    long best_deg = -1;
    for (Qubit q : nodes) {
        const long d = scopedDegree(coupling, q, side);
        if (d > best_deg) {
            best_deg = d;
            seed = q;
        }
    }

    size_t grown = 0;
    auto grow = [&](Qubit q) {
        side[static_cast<size_t>(q)] = 1;
        ++grown;
        for (const auto &[n, w] : coupling.neighbors(q)) {
            if (side[static_cast<size_t>(n)] == 0) {
                gain[static_cast<size_t>(n)] += w;
                heap.emplace(gain[static_cast<size_t>(n)], n);
            }
        }
    };
    grow(seed);
    while (grown < left_size) {
        Qubit next = kNoQubit;
        while (!heap.empty()) {
            const auto [g, q] = heap.top();
            heap.pop();
            if (side[static_cast<size_t>(q)] == 0 &&
                gain[static_cast<size_t>(q)] == g) {
                next = q;
                break;
            }
        }
        if (next == kNoQubit) {
            // Disconnected remainder: take any right-side node.
            for (Qubit q : nodes) {
                if (side[static_cast<size_t>(q)] == 0) {
                    next = q;
                    break;
                }
            }
        }
        require(next != kNoQubit, "bisect: ran out of nodes");
        grow(next);
    }

    // Refinement: D(q) = external - internal connection weight; swap the
    // best boundary pair per round while it improves the cut.
    for (int round = 0; round < kRefineRounds; ++round) {
        Qubit best_l = kNoQubit, best_r = kNoQubit;
        long dl = 0, dr = 0;
        for (Qubit q : nodes) {
            long ext = 0, in = 0;
            const bool is_left = side[static_cast<size_t>(q)] == 1;
            for (const auto &[n, w] : coupling.neighbors(q)) {
                const int8_t s = side[static_cast<size_t>(n)];
                if (s < 0)
                    continue;
                if ((s == 1) == is_left)
                    in += w;
                else
                    ext += w;
            }
            const long d = ext - in;
            if (is_left) {
                if (best_l == kNoQubit || d > dl) {
                    best_l = q;
                    dl = d;
                }
            } else if (best_r == kNoQubit || d > dr) {
                best_r = q;
                dr = d;
            }
        }
        if (best_l == kNoQubit || best_r == kNoQubit)
            break;
        const long pair_gain =
            dl + dr - 2 * coupling.edgeWeight(best_l, best_r);
        if (pair_gain <= 0)
            break;
        side[static_cast<size_t>(best_l)] = 0;
        side[static_cast<size_t>(best_r)] = 1;
    }

    std::pair<std::vector<Qubit>, std::vector<Qubit>> result;
    for (Qubit q : nodes) {
        if (side[static_cast<size_t>(q)] == 1)
            result.first.push_back(q);
        else
            result.second.push_back(q);
    }
    return result;
}

Placement
partitionPlacement(const CouplingGraph &coupling, const Grid &grid,
                   Rng &rng, int leaf_cells)
{
    const int nq = coupling.numQubits();
    Placement placement(grid, nq);
    std::vector<CellId> cells(static_cast<size_t>(nq), -1);
    std::vector<Qubit> nodes(static_cast<size_t>(nq));
    for (Qubit q = 0; q < nq; ++q)
        nodes[static_cast<size_t>(q)] = q;
    const Region whole{0, 0, grid.rows() - 1, grid.cols() - 1};
    placeRecursive(coupling, grid, nodes, whole, rng, leaf_cells, cells);
    placement.assign(cells);
    return placement;
}

} // namespace autobraid
