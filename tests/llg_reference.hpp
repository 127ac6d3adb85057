/**
 * @file
 * Test-only reference for the LLG merge kernel and the annealer.
 *
 * These are the union-find fixpoint `computeLlgs`, `isStrictlyNested`
 * and `llgStats`, the per-set `setCost` and the `annealPlacement` loop
 * that the library used before the allocation-free kernel, and the
 * layer-by-layer `asapLayers`, `concurrentCxSets` and `sampleSets` it
 * used before the one-pass layering, copied unchanged apart from
 * `inline`, the namespace, and `reference::` on the calls that
 * argument-dependent lookup would make ambiguous with the library's
 * functions of the same name. Tests compare the library against them:
 * the same layers and sampled sets for every circuit, the same groups
 * and statistics for every task set, and the same placement and
 * counters for every anneal.
 */

#ifndef AUTOBRAID_TESTS_LLG_REFERENCE_HPP
#define AUTOBRAID_TESTS_LLG_REFERENCE_HPP

#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "circuit/layers.hpp"
#include "common/rng.hpp"
#include "llg/llg.hpp"
#include "place/annealer.hpp"
#include "place/placement.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace reference {

/** Union-find with path compression. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), size_t{0});
    }

    size_t
    find(size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    /** @return true when a merge happened. */
    bool
    unite(size_t a, size_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        parent_[a] = b;
        return true;
    }

  private:
    std::vector<size_t> parent_;
};

inline std::vector<Llg>
computeLlgs(const std::vector<CxTask> &tasks)
{
    const size_t n = tasks.size();
    UnionFind uf(n);

    // Transitive closure of bbox intersection: merge any two groups whose
    // joint boxes intersect, recompute, and repeat to fixpoint (merging
    // two groups can grow a joint box into a third).
    std::vector<size_t> rep(n);
    bool changed = true;
    while (changed) {
        changed = false;
        // Current joint bbox per representative.
        std::vector<BBox> joint(n);
        for (size_t i = 0; i < n; ++i) {
            rep[i] = uf.find(i);
            joint[rep[i]].cover(tasks[i].bbox);
        }
        std::vector<size_t> reps;
        for (size_t i = 0; i < n; ++i)
            if (rep[i] == i)
                reps.push_back(i);
        for (size_t x = 0; x < reps.size(); ++x) {
            for (size_t y = x + 1; y < reps.size(); ++y) {
                if (joint[reps[x]].intersects(joint[reps[y]]))
                    changed |= uf.unite(reps[x], reps[y]);
            }
        }
    }

    std::vector<Llg> llgs;
    std::vector<ssize_t> group_of(n, -1);
    for (size_t i = 0; i < n; ++i) {
        const size_t r = uf.find(i);
        if (group_of[r] < 0) {
            group_of[r] = static_cast<ssize_t>(llgs.size());
            llgs.emplace_back();
        }
        Llg &g = llgs[static_cast<size_t>(group_of[r])];
        g.members.push_back(i);
        g.bbox.cover(tasks[i].bbox);
    }
    return llgs;
}

inline bool
isStrictlyNested(const Llg &llg, const std::vector<CxTask> &tasks)
{
    if (llg.size() <= 1)
        return true;
    std::vector<size_t> order = llg.members;
    std::sort(order.begin(), order.end(), [&tasks](size_t x, size_t y) {
        return tasks[x].bbox.area() < tasks[y].bbox.area();
    });
    for (size_t i = 1; i < order.size(); ++i) {
        if (!tasks[order[i]].bbox.strictlyContains(tasks[order[i - 1]].bbox))
            return false;
    }
    return true;
}

inline LlgStats
llgStats(const std::vector<CxTask> &tasks)
{
    LlgStats stats;
    for (const Llg &g : reference::computeLlgs(tasks)) {
        ++stats.num_llgs;
        stats.largest = std::max(stats.largest, g.size());
        if (g.size() > 3) {
            ++stats.oversize;
            if (!reference::isStrictlyNested(g, tasks))
                ++stats.hard;
        }
    }
    return stats;
}

// Geometric cooling from kStartTemperature to kEndTemperature over an
// iteration count set by kOpBudget (approximate task evaluations),
// clamped to [kMinIterations, kMaxIterations].
constexpr double kStartTemperature = 2.0;
constexpr double kEndTemperature = 0.02;
constexpr long kOpBudget = 40'000'000;
constexpr int kMinIterations = 64;
constexpr int kMaxIterations = 4000;

inline std::vector<std::vector<GateIdx>>
asapLayers(const Circuit &circuit)
{
    std::vector<size_t> qubit_depth(
        static_cast<size_t>(circuit.numQubits()), 0);
    std::vector<std::vector<GateIdx>> layers;
    for (GateIdx g = 0; g < circuit.size(); ++g) {
        const Gate &gate = circuit.gate(g);
        size_t d = qubit_depth[static_cast<size_t>(gate.q0)];
        if (gate.q1 != kNoQubit)
            d = std::max(d, qubit_depth[static_cast<size_t>(gate.q1)]);
        if (d >= layers.size())
            layers.resize(d + 1);
        layers[d].push_back(g);
        qubit_depth[static_cast<size_t>(gate.q0)] = d + 1;
        if (gate.q1 != kNoQubit)
            qubit_depth[static_cast<size_t>(gate.q1)] = d + 1;
    }
    return layers;
}

inline std::vector<std::vector<GateIdx>>
concurrentCxSets(const Circuit &circuit)
{
    std::vector<std::vector<GateIdx>> sets;
    for (auto &layer : reference::asapLayers(circuit)) {
        std::vector<GateIdx> cxs;
        for (GateIdx g : layer)
            if (needsBraid(circuit.gate(g).kind))
                cxs.push_back(g);
        if (!cxs.empty())
            sets.push_back(std::move(cxs));
    }
    return sets;
}

/** Evenly sample at most @p max_sets concurrent sets. */
inline std::vector<std::vector<GateIdx>>
sampleSets(const Circuit &circuit, size_t max_sets)
{
    auto sets = reference::concurrentCxSets(circuit);
    if (sets.size() <= max_sets || max_sets == 0)
        return sets;
    std::vector<std::vector<GateIdx>> sampled;
    sampled.reserve(max_sets);
    const double stride = static_cast<double>(sets.size()) /
                          static_cast<double>(max_sets);
    for (size_t i = 0; i < max_sets; ++i)
        sampled.push_back(std::move(
            sets[static_cast<size_t>(static_cast<double>(i) *
                                     stride)]));
    return sampled;
}

/**
 * Weighted LLG cost of one concurrent set. The LLG counts dominate
 * (paper objective: number of size>3 LLGs, non-nested ones worst); a
 * small bbox-span term breaks ties toward compact layouts so the
 * annealer does not wander into spread-out placements of equal LLG
 * count.
 */
inline long
setCost(const Circuit &circuit, const Placement &placement,
        const std::vector<GateIdx> &set)
{
    const auto tasks = placement.tasks(circuit, set);
    const auto stats = reference::llgStats(tasks);
    long span = 0;
    for (const CxTask &t : tasks)
        span += (t.bbox.rmax - t.bbox.rmin - 1) +
                (t.bbox.cmax - t.bbox.cmin - 1);
    return 1000 * (static_cast<long>(stats.oversize) +
                   2 * static_cast<long>(stats.hard)) +
           span;
}

inline Placement
annealPlacement(const Circuit &circuit, Placement initial, Rng &rng)
{
    AUTOBRAID_SPAN("place.anneal");
    const auto sets = sampleSets(circuit, kAnnealMaxSets);
    if (sets.empty())
        return initial;

    const int nq = circuit.numQubits();

    // qubit -> indices of sets whose cost a move of that qubit affects.
    std::vector<std::vector<size_t>> sets_of_qubit(
        static_cast<size_t>(nq));
    long total_tasks = 0;
    for (size_t s = 0; s < sets.size(); ++s) {
        for (GateIdx g : sets[s]) {
            const Gate &gate = circuit.gate(g);
            sets_of_qubit[static_cast<size_t>(gate.q0)].push_back(s);
            sets_of_qubit[static_cast<size_t>(gate.q1)].push_back(s);
        }
        total_tasks += static_cast<long>(sets[s].size());
    }
    for (auto &v : sets_of_qubit) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    // Iteration count from the operation budget: each proposal
    // re-evaluates on average (2 * total_tasks / nq) sets, each roughly
    // quadratic in its task count.
    double avg_eval = 0;
    for (const auto &set : sets) {
        const double k = static_cast<double>(set.size());
        avg_eval += k * k;
    }
    avg_eval = avg_eval / static_cast<double>(sets.size());
    const double sets_per_move =
        2.0 * static_cast<double>(total_tasks) /
        std::max(1.0, static_cast<double>(nq) *
                          static_cast<double>(sets.size())) *
        static_cast<double>(sets.size());
    const double per_move = std::max(1.0, sets_per_move * avg_eval);
    int iterations = static_cast<int>(
        std::clamp(static_cast<double>(kOpBudget) / per_move,
                   static_cast<double>(kMinIterations),
                   static_cast<double>(kMaxIterations)));

    Placement current = std::move(initial);
    std::vector<long> cost(sets.size());
    long total = 0;
    for (size_t s = 0; s < sets.size(); ++s) {
        cost[s] = setCost(circuit, current, sets[s]);
        total += cost[s];
    }

    Placement best = current;
    long best_total = total;
    const double cool =
        iterations > 1
            ? std::pow(kEndTemperature / kStartTemperature,
                       1.0 / static_cast<double>(iterations - 1))
            : 1.0;
    double temp = kStartTemperature;

    long long proposals = 0;
    long long accepts = 0;
    std::vector<size_t> affected;
    std::vector<long> new_cost;
    for (int it = 0; it < iterations; ++it, temp *= cool) {
        if (best_total == 0)
            break;
        ++proposals;
        // Propose: swap two distinct qubits, or hop one qubit to a free
        // tile when the grid has spare cells.
        const auto a = static_cast<Qubit>(rng.index(
            static_cast<size_t>(nq)));
        Qubit b = kNoQubit;
        CellId free_cell = -1;
        const bool has_spare =
            current.grid().numCells() > nq && rng.chance(0.3);
        if (has_spare) {
            // Find a random empty tile (retry a few times).
            for (int tries = 0; tries < 8 && free_cell < 0; ++tries) {
                const auto c = static_cast<CellId>(rng.index(
                    static_cast<size_t>(current.grid().numCells())));
                if (current.qubitAt(c) == kNoQubit)
                    free_cell = c;
            }
        }
        CellId prev_cell = -1;
        if (free_cell >= 0) {
            prev_cell = current.cellIdOf(a);
            current.moveTo(a, free_cell);
        } else {
            do {
                b = static_cast<Qubit>(rng.index(
                    static_cast<size_t>(nq)));
            } while (b == a);
            current.swapQubits(a, b);
        }

        affected = sets_of_qubit[static_cast<size_t>(a)];
        if (b != kNoQubit) {
            affected.insert(affected.end(),
                            sets_of_qubit[static_cast<size_t>(b)].begin(),
                            sets_of_qubit[static_cast<size_t>(b)].end());
            std::sort(affected.begin(), affected.end());
            affected.erase(std::unique(affected.begin(), affected.end()),
                           affected.end());
        }

        long delta = 0;
        new_cost.clear();
        for (size_t s : affected) {
            const long c = setCost(circuit, current, sets[s]);
            new_cost.push_back(c);
            delta += c - cost[s];
        }

        const bool accept =
            delta <= 0 ||
            rng.uniform() <
                std::exp(-static_cast<double>(delta) / temp);
        if (accept) {
            ++accepts;
            for (size_t i = 0; i < affected.size(); ++i)
                cost[affected[i]] = new_cost[i];
            total += delta;
            if (total < best_total) {
                best_total = total;
                best = current;
            }
        } else if (free_cell >= 0) {
            current.moveTo(a, prev_cell);
        } else {
            current.swapQubits(a, b);
        }
    }
    if (proposals > 0) {
        AUTOBRAID_COUNT("place.anneal_proposals", proposals);
        AUTOBRAID_COUNT("place.anneal_accepts", accepts);
        AUTOBRAID_OBSERVE("place.anneal_acceptance",
                          static_cast<double>(accepts) /
                              static_cast<double>(proposals),
                          telemetry::ratioBounds());
    }
    return best;
}

} // namespace reference
} // namespace autobraid

#endif // AUTOBRAID_TESTS_LLG_REFERENCE_HPP
