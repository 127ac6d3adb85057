#include "place/annealer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "llg/llg.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace {

// Geometric cooling from kStartTemperature to kEndTemperature over an
// iteration count set by kOpBudget (approximate task evaluations),
// clamped to [kMinIterations, kMaxIterations].
constexpr double kStartTemperature = 2.0;
constexpr double kEndTemperature = 0.02;
constexpr long kOpBudget = 40'000'000;
constexpr int kMinIterations = 64;
constexpr int kMaxIterations = 4000;

/**
 * Scores concurrent CX sets in reused scratch. Each set's operand pairs
 * are flattened once, each tile's coordinates are looked up rather than
 * divided out, and every score builds the set's task boxes from the
 * placement into one buffer and runs one LLG merge kernel over it.
 * Every placement scored must have the grid and qubit count of the one
 * the scorer was built with.
 */
class SetScorer
{
  public:
    SetScorer(const Circuit &circuit,
              const std::vector<std::vector<GateIdx>> &sets,
              const Placement &placement)
    {
        begin_.reserve(sets.size() + 1);
        begin_.push_back(0);
        for (const auto &set : sets) {
            for (GateIdx g : set) {
                const Gate &gate = circuit.gate(g);
                require(needsBraid(gate.kind),
                        "SetScorer: gate does not need a braid");
                require(gate.q0 >= 0 && gate.q0 < placement.numQubits() &&
                            gate.q1 >= 0 &&
                            gate.q1 < placement.numQubits(),
                        "SetScorer: qubit out of range");
                operands_.emplace_back(gate.q0, gate.q1);
            }
            begin_.push_back(operands_.size());
        }
        const Grid &grid = placement.grid();
        tiles_.reserve(static_cast<size_t>(grid.numCells()));
        for (CellId c = 0; c < grid.numCells(); ++c)
            tiles_.push_back(grid.cell(c));
    }

    /**
     * Weighted LLG cost of set @p s under @p placement. The LLG counts
     * dominate (paper objective: number of size>3 LLGs, non-nested ones
     * worst); a small bbox-span term breaks ties toward compact layouts
     * so the annealer does not wander into spread-out placements of
     * equal LLG count.
     */
    long
    cost(const Placement &placement, size_t s)
    {
        const long span = fill(placement, s);
        const LlgStats stats = merger_.stats(boxes_);
        return 1000 * (static_cast<long>(stats.oversize) +
                       2 * static_cast<long>(stats.hard)) +
               span;
    }

    /** LLG statistics of set @p s under @p placement. */
    LlgStats
    stats(const Placement &placement, size_t s)
    {
        fill(placement, s);
        return merger_.stats(boxes_);
    }

  private:
    std::vector<std::pair<Qubit, Qubit>> operands_;
    std::vector<size_t> begin_; ///< set s is operands_[begin_[s], begin_[s+1])
    std::vector<Cell> tiles_;   ///< tile id -> its row and column
    std::vector<BBox> boxes_;
    LlgMerger merger_;

    /**
     * Fill boxes_ with set @p s's outer bounding boxes under
     * @p placement and return the sum of their spans, the Manhattan
     * distances between operand tiles.
     */
    long
    fill(const Placement &placement, size_t s)
    {
        const std::vector<CellId> &cells = placement.cellIds();
        boxes_.resize(begin_[s + 1] - begin_[s]);
        long span = 0;
        for (size_t i = begin_[s]; i < begin_[s + 1]; ++i) {
            const auto [qa, qb] = operands_[i];
            const Cell a = tiles_[static_cast<size_t>(
                cells[static_cast<size_t>(qa)])];
            const Cell b = tiles_[static_cast<size_t>(
                cells[static_cast<size_t>(qb)])];
            boxes_[i - begin_[s]] = BBox::ofCells(a, b);
            span += a.dist(b);
        }
        return span;
    }
};

} // namespace

long
llgObjective(const Circuit &circuit, const Placement &placement,
             size_t max_sets)
{
    const auto sets = concurrentCxSets(circuit, max_sets);
    SetScorer scorer(circuit, sets, placement);
    long total = 0;
    for (size_t s = 0; s < sets.size(); ++s)
        total += scorer.cost(placement, s);
    return total;
}

long
countOversizeLlgs(const Circuit &circuit, const Placement &placement)
{
    const auto sets = concurrentCxSets(circuit);
    SetScorer scorer(circuit, sets, placement);
    long total = 0;
    for (size_t s = 0; s < sets.size(); ++s)
        total += static_cast<long>(scorer.stats(placement, s).oversize);
    return total;
}

Placement
annealPlacement(const Circuit &circuit, Placement initial, Rng &rng)
{
    AUTOBRAID_SPAN("place.anneal");
    const auto sets = concurrentCxSets(circuit, kAnnealMaxSets);
    if (sets.empty())
        return initial;

    const int nq = circuit.numQubits();
    SetScorer scorer(circuit, sets, initial);

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
        cost[s] = scorer.cost(current, s);
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
            const long c = scorer.cost(current, s);
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

} // namespace autobraid
