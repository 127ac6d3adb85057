/**
 * @file
 * Gate dependence DAG.
 *
 * Two gates depend on each other when they share an operand qubit; the DAG
 * keeps, for every gate, the immediately preceding gate on each operand.
 * The scheduler consumes the DAG as a ready-front iterator, and the
 * evaluation harness uses the duration-weighted longest path as the
 * "critical path (CP)" ideal execution time from the paper's Table 2 and
 * Fig. 16.
 */

#ifndef AUTOBRAID_CIRCUIT_DAG_HPP
#define AUTOBRAID_CIRCUIT_DAG_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.hpp"

namespace autobraid {

/** Duration of a gate in surface-code cycles. */
using Cycles = uint64_t;

/** Maps a gate to its duration; provided by lattice::CostModel. */
using DurationFn = std::function<Cycles(const Gate &)>;

/** Immutable dependence DAG over a circuit's gates. */
class Dag
{
  public:
    /**
     * Build the DAG for @p circuit. The circuit must outlive the DAG.
     */
    explicit Dag(const Circuit &circuit);

    /** The underlying circuit. */
    const Circuit &circuit() const { return *circuit_; }

    /** Number of gates (DAG nodes). */
    size_t size() const { return preds_.size(); }

    /** Immediate predecessors of gate @p g. */
    const std::vector<GateIdx> &preds(GateIdx g) const { return preds_[g]; }

    /** Immediate successors of gate @p g. */
    const std::vector<GateIdx> &succs(GateIdx g) const { return succs_[g]; }

    /** Gates with no predecessors, in program order. */
    std::vector<GateIdx> roots() const;

    /** Unit-latency depth (longest chain, in gates). */
    size_t unitDepth() const;

    /**
     * Duration-weighted longest path: the ideal latency of the circuit
     * when braiding constraints are ignored (paper's "CP").
     */
    Cycles criticalPath(const DurationFn &dur) const;

    /**
     * Earliest start time of every gate under infinite communication
     * resources. asap[g] + dur(g) <= asap[s] for every successor s.
     */
    std::vector<Cycles> asapStarts(const DurationFn &dur) const;

    /**
     * Criticality of every gate: the duration-weighted longest path
     * from the gate (inclusive) to any sink. Scheduling
     * highest-criticality gates first is one of the baseline's greedy
     * policies [10] and drives the GreedyOrder::Criticality ablation.
     */
    std::vector<Cycles> criticality(const DurationFn &dur) const;

  private:
    const Circuit *circuit_;
    std::vector<std::vector<GateIdx>> preds_;
    std::vector<std::vector<GateIdx>> succs_;
};

/**
 * Incremental ready-front tracker over a Dag. The scheduler retires gates
 * as they finish; the front exposes every gate whose predecessors have all
 * retired.
 */
class ReadyFront
{
  public:
    explicit ReadyFront(const Dag &dag);

    /** Gates currently ready (unordered). */
    const std::vector<GateIdx> &ready() const { return ready_; }

    /** True when every gate has been retired. */
    bool done() const { return retired_count_ == dag_->size(); }

    /** Number of retired gates. */
    size_t retiredCount() const { return retired_count_; }

    /**
     * Mark a ready gate as issued (removes it from the ready set without
     * releasing successors yet). Raises InternalError if not ready.
     */
    void issue(GateIdx g);

    /** Retire an issued gate, releasing successors into the ready set. */
    void retire(GateIdx g);

  private:
    const Dag *dag_;
    // While gate g waits: its predecessors not yet retired. While it
    // is ready: its position in ready_, so issue() moves the last
    // entry into that slot without a search.
    std::vector<size_t> preds_or_slot_;
    std::vector<uint8_t> state_; // 0 = waiting, 1 = ready, 2 = issued,
                                 // 3 = retired
    std::vector<GateIdx> ready_;
    size_t retired_count_ = 0;

    void makeReady(GateIdx g);
};

} // namespace autobraid

#endif // AUTOBRAID_CIRCUIT_DAG_HPP
