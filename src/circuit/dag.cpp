#include "circuit/dag.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace autobraid {

Dag::Dag(const Circuit &circuit)
    : circuit_(&circuit),
      preds_(circuit.size()),
      succs_(circuit.size())
{
    // last_on[q] is the most recent gate touching qubit q, if any.
    std::vector<ssize_t> last_on(static_cast<size_t>(circuit.numQubits()),
                                 -1);
    for (GateIdx g = 0; g < circuit.size(); ++g) {
        const Gate &gate = circuit.gate(g);
        const Qubit ops[2] = {gate.q0, gate.q1};
        for (Qubit q : ops) {
            if (q == kNoQubit)
                continue;
            const ssize_t prev = last_on[static_cast<size_t>(q)];
            if (prev >= 0) {
                const auto p = static_cast<GateIdx>(prev);
                // A 2q gate may meet the same predecessor on both
                // operands; record the edge once.
                if (preds_[g].empty() || preds_[g].back() != p) {
                    preds_[g].push_back(p);
                    succs_[p].push_back(g);
                }
            }
            last_on[static_cast<size_t>(q)] = static_cast<ssize_t>(g);
        }
    }
}

std::vector<GateIdx>
Dag::roots() const
{
    std::vector<GateIdx> r;
    for (GateIdx g = 0; g < preds_.size(); ++g)
        if (preds_[g].empty())
            r.push_back(g);
    return r;
}

size_t
Dag::unitDepth() const
{
    std::vector<size_t> depth(size(), 0);
    size_t max_depth = 0;
    for (GateIdx g = 0; g < size(); ++g) {
        size_t d = 0;
        for (GateIdx p : preds_[g])
            d = std::max(d, depth[p]);
        depth[g] = d + 1;
        max_depth = std::max(max_depth, depth[g]);
    }
    return max_depth;
}

Cycles
Dag::criticalPath(const DurationFn &dur) const
{
    Cycles cp = 0;
    const auto finish = asapStarts(dur);
    for (GateIdx g = 0; g < size(); ++g)
        cp = std::max(cp, finish[g] + dur(circuit_->gate(g)));
    return cp;
}

std::vector<Cycles>
Dag::asapStarts(const DurationFn &dur) const
{
    // Gates are stored in a topological (program) order, so one forward
    // sweep suffices.
    std::vector<Cycles> start(size(), 0);
    for (GateIdx g = 0; g < size(); ++g) {
        Cycles s = 0;
        for (GateIdx p : preds_[g])
            s = std::max(s, start[p] + dur(circuit_->gate(p)));
        start[g] = s;
    }
    return start;
}

std::vector<Cycles>
Dag::criticality(const DurationFn &dur) const
{
    std::vector<Cycles> crit(size(), 0);
    for (size_t i = size(); i > 0; --i) {
        const GateIdx g = i - 1;
        Cycles downstream = 0;
        for (GateIdx s : succs_[g])
            downstream = std::max(downstream, crit[s]);
        crit[g] = downstream + dur(circuit_->gate(g));
    }
    return crit;
}

ReadyFront::ReadyFront(const Dag &dag)
    : dag_(&dag),
      preds_or_slot_(dag.size()),
      state_(dag.size(), 0)
{
    for (GateIdx g = 0; g < dag.size(); ++g) {
        preds_or_slot_[g] = dag.preds(g).size();
        if (preds_or_slot_[g] == 0)
            makeReady(g);
    }
}

void
ReadyFront::makeReady(GateIdx g)
{
    state_[g] = 1;
    preds_or_slot_[g] = ready_.size();
    ready_.push_back(g);
}

void
ReadyFront::issue(GateIdx g)
{
    require(g < state_.size() && state_[g] == 1,
            "ReadyFront::issue on a gate that is not ready");
    state_[g] = 2;
    // Move the last ready gate into g's slot.
    const size_t slot = preds_or_slot_[g];
    const GateIdx last = ready_.back();
    ready_[slot] = last;
    preds_or_slot_[last] = slot;
    ready_.pop_back();
}

void
ReadyFront::retire(GateIdx g)
{
    require(g < state_.size() && state_[g] == 2,
            "ReadyFront::retire on a gate that was not issued");
    state_[g] = 3;
    ++retired_count_;
    for (GateIdx s : dag_->succs(g)) {
        require(state_[s] == 0 && preds_or_slot_[s] > 0,
                "ReadyFront: predecessor underflow");
        if (--preds_or_slot_[s] == 0)
            makeReady(s);
    }
}

} // namespace autobraid
