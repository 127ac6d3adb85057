#include "place/annealer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
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

/** Span of an outer box: the Manhattan distance between its two tiles. */
long
spanOf(const BBox &box)
{
    return (box.rmax - box.rmin - 1) + (box.cmax - box.cmin - 1);
}

/**
 * Scores the sampled concurrent CX sets under a placement that the
 * annealer's moves patch. It keeps one slot per gate holding the
 * gate's outer bounding box (a set's slots are contiguous), each set's
 * span (the sum of its gates' Manhattan distances between operand
 * tiles), and a flat table from each qubit to the (set, slot) pairs of
 * the gates it is an operand of, ascending. The CX gates of one set
 * share no qubit, so a move changes at most one slot per set for each
 * qubit it moves: patch() rewrites just those slots and updates each
 * changed set's span by the difference, and undo() puts them back.
 * cost() merges a set's kept boxes with the LLG kernel (llg/llg.hpp)
 * only when the set has more than three gates; a smaller set holds no
 * LLG of size > 3, so its cost is its span. Once the scratch has
 * grown, nothing allocates. Every placement patched must have the grid
 * and qubit count of the one the scorer was built with.
 */
class SetScorer
{
  public:
    SetScorer(const Circuit &circuit,
              const std::vector<std::vector<GateIdx>> &sets,
              const Placement &placement)
    {
        const Grid &grid = placement.grid();
        tiles_.reserve(static_cast<size_t>(grid.numCells()));
        for (CellId c = 0; c < grid.numCells(); ++c)
            tiles_.push_back(grid.cell(c));

        // Count each qubit's gates, then lay its (set, slot) pairs out
        // in slot order.
        first_.assign(static_cast<size_t>(placement.numQubits()) + 1, 0);
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
                ++first_[static_cast<size_t>(gate.q0) + 1];
                ++first_[static_cast<size_t>(gate.q1) + 1];
            }
            begin_.push_back(static_cast<uint32_t>(operands_.size()));
        }
        for (size_t q = 1; q < first_.size(); ++q)
            first_[q] += first_[q - 1];
        refs_.resize(2 * operands_.size());
        std::vector<uint32_t> fill(first_.begin(), first_.end() - 1);
        boxes_.reserve(operands_.size());
        span_.assign(sets.size(), 0);
        for (uint32_t s = 0; s < sets.size(); ++s) {
            for (uint32_t slot = begin_[s]; slot < begin_[s + 1]; ++slot) {
                const auto [qa, qb] = operands_[slot];
                refs_[fill[static_cast<size_t>(qa)]++] = {s, slot};
                refs_[fill[static_cast<size_t>(qb)]++] = {s, slot};
                boxes_.push_back(boxOf(placement.cellIds(), slot));
                span_[s] += spanOf(boxes_.back());
            }
        }
    }

    /**
     * Weighted LLG cost of set @p s. The LLG counts dominate (paper
     * objective: number of size>3 LLGs, non-nested ones worst); the
     * set's span breaks ties toward compact layouts so the annealer
     * does not wander into spread-out placements of equal LLG count.
     */
    long
    cost(size_t s)
    {
        if (begin_[s + 1] - begin_[s] <= 3)
            return span_[s];
        const LlgStats stats = merger_.stats(boxes(s));
        return 1000 * (static_cast<long>(stats.oversize) +
                       2 * static_cast<long>(stats.hard)) +
               span_[s];
    }

    /** Number of set @p s's LLGs of size > 3. */
    size_t
    oversize(size_t s)
    {
        return begin_[s + 1] - begin_[s] <= 3
                   ? 0
                   : merger_.stats(boxes(s)).oversize;
    }

    /**
     * Bring the slots of qubit @p a, and of @p b unless it is kNoQubit,
     * up to date with @p placement, in which a moved or a and b
     * swapped. touched() then lists the sets whose boxes changed,
     * ascending.
     */
    void
    patch(const Placement &placement, Qubit a, Qubit b)
    {
        touched_.clear();
        saved_.clear();
        const std::vector<CellId> &cells = placement.cellIds();
        const std::span<const SlotRef> x = refsOf(a);
        const std::span<const SlotRef> y =
            b == kNoQubit ? std::span<const SlotRef>() : refsOf(b);
        // Merge the two ascending lists. A slot in both is the gate on
        // a and b, whose box a swap leaves as it was.
        size_t i = 0;
        size_t j = 0;
        while (i < x.size() || j < y.size()) {
            const bool take_x =
                j == y.size() || (i < x.size() && x[i].slot <= y[j].slot);
            patchSlot(cells, take_x ? x[i++] : y[j++]);
        }
    }

    /** Sets whose boxes the last patch() changed, ascending. */
    const std::vector<uint32_t> &touched() const { return touched_; }

    /** Restore the slots and spans the last patch() changed. */
    void
    undo()
    {
        for (const Saved &saved : saved_) {
            BBox &kept = boxes_[saved.ref.slot];
            span_[saved.ref.set] += spanOf(saved.box) - spanOf(kept);
            kept = saved.box;
        }
    }

  private:
    /** One gate of one set: slot indexes boxes_ and operands_. */
    struct SlotRef
    {
        uint32_t set;
        uint32_t slot;
    };

    /** A slot's box before the last patch() changed it. */
    struct Saved
    {
        SlotRef ref;
        BBox box;
    };

    std::vector<std::pair<Qubit, Qubit>> operands_; ///< per slot
    std::vector<uint32_t> begin_; ///< set s is slots [begin_[s], begin_[s+1])
    std::vector<Cell> tiles_;     ///< tile id -> its row and column
    std::vector<BBox> boxes_;     ///< per slot, for the current placement
    std::vector<long> span_;      ///< per set, for the current placement
    std::vector<uint32_t> first_; ///< q's pairs start at refs_[first_[q]]
    std::vector<SlotRef> refs_;   ///< every qubit's pairs, in slot order
    std::vector<uint32_t> touched_;
    std::vector<Saved> saved_;
    LlgMerger merger_;

    std::span<const BBox>
    boxes(size_t s) const
    {
        return std::span<const BBox>(boxes_).subspan(
            begin_[s], begin_[s + 1] - begin_[s]);
    }

    std::span<const SlotRef>
    refsOf(Qubit q) const
    {
        const auto at = static_cast<size_t>(q);
        return std::span<const SlotRef>(refs_).subspan(
            first_[at], first_[at + 1] - first_[at]);
    }

    /** Outer bounding box of slot @p slot's gate on tiles @p cells. */
    BBox
    boxOf(const std::vector<CellId> &cells, uint32_t slot) const
    {
        const auto [qa, qb] = operands_[slot];
        return BBox::ofCells(
            tiles_[static_cast<size_t>(cells[static_cast<size_t>(qa)])],
            tiles_[static_cast<size_t>(cells[static_cast<size_t>(qb)])]);
    }

    void
    patchSlot(const std::vector<CellId> &cells, SlotRef ref)
    {
        const BBox box = boxOf(cells, ref.slot);
        BBox &kept = boxes_[ref.slot];
        if (box == kept)
            return;
        saved_.push_back({ref, kept});
        if (touched_.empty() || touched_.back() != ref.set)
            touched_.push_back(ref.set);
        span_[ref.set] += spanOf(box) - spanOf(kept);
        kept = box;
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
        total += scorer.cost(s);
    return total;
}

long
countOversizeLlgs(const Circuit &circuit, const Placement &placement)
{
    const auto sets = concurrentCxSets(circuit);
    SetScorer scorer(circuit, sets, placement);
    long total = 0;
    for (size_t s = 0; s < sets.size(); ++s)
        total += static_cast<long>(scorer.oversize(s));
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
    long total_tasks = 0;
    for (const auto &set : sets)
        total_tasks += static_cast<long>(set.size());

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
        cost[s] = scorer.cost(s);
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

        scorer.patch(current, a, b);
        const std::vector<uint32_t> &touched = scorer.touched();
        long delta = 0;
        new_cost.clear();
        for (uint32_t s : touched) {
            const long c = scorer.cost(s);
            new_cost.push_back(c);
            delta += c - cost[s];
        }

        const bool accept =
            delta <= 0 ||
            rng.uniform() <
                std::exp(-static_cast<double>(delta) / temp);
        if (accept) {
            ++accepts;
            for (size_t i = 0; i < touched.size(); ++i)
                cost[touched[i]] = new_cost[i];
            total += delta;
            if (total < best_total) {
                best_total = total;
                best = current;
            }
        } else {
            scorer.undo();
            if (free_cell >= 0)
                current.moveTo(a, prev_cell);
            else
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
