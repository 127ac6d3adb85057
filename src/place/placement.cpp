#include "place/placement.hpp"

#include "common/error.hpp"

namespace autobraid {

Placement::Placement(const Grid &grid, int num_qubits)
    : grid_(&grid),
      cell_of_(static_cast<size_t>(num_qubits)),
      qubit_at_(static_cast<size_t>(grid.numCells()), kNoQubit)
{
    if (num_qubits <= 0)
        fatal("Placement requires a positive qubit count, got %d",
              num_qubits);
    if (num_qubits > grid.numCells())
        fatal("%d qubits do not fit on a %dx%d tile grid", num_qubits,
              grid.rows(), grid.cols());
    for (Qubit q = 0; q < num_qubits; ++q) {
        cell_of_[static_cast<size_t>(q)] = q;
        qubit_at_[static_cast<size_t>(q)] = q;
    }
}

Qubit
Placement::qubitAt(CellId c) const
{
    require(c >= 0 && c < grid_->numCells(),
            "Placement: cell id out of range");
    return qubit_at_[static_cast<size_t>(c)];
}

void
Placement::swapQubits(Qubit a, Qubit b)
{
    const CellId ca = cellIdOf(a);
    const CellId cb = cellIdOf(b);
    cell_of_[static_cast<size_t>(a)] = cb;
    cell_of_[static_cast<size_t>(b)] = ca;
    qubit_at_[static_cast<size_t>(ca)] = b;
    qubit_at_[static_cast<size_t>(cb)] = a;
}

void
Placement::moveTo(Qubit q, CellId c)
{
    require(qubitAt(c) == kNoQubit, "Placement::moveTo: tile occupied");
    const CellId old = cellIdOf(q);
    qubit_at_[static_cast<size_t>(old)] = kNoQubit;
    qubit_at_[static_cast<size_t>(c)] = q;
    cell_of_[static_cast<size_t>(q)] = c;
}

void
Placement::assign(const std::vector<CellId> &cells)
{
    if (cells.size() != cell_of_.size())
        fatal("Placement::assign: expected %zu entries, got %zu",
              cell_of_.size(), cells.size());
    std::fill(qubit_at_.begin(), qubit_at_.end(), kNoQubit);
    for (Qubit q = 0; q < numQubits(); ++q) {
        const CellId c = cells[static_cast<size_t>(q)];
        if (c < 0 || c >= grid_->numCells())
            fatal("Placement::assign: cell id %d out of range", c);
        if (qubit_at_[static_cast<size_t>(c)] != kNoQubit)
            fatal("Placement::assign: tile %d assigned twice", c);
        cell_of_[static_cast<size_t>(q)] = c;
        qubit_at_[static_cast<size_t>(c)] = q;
    }
}

std::vector<CxTask>
Placement::tasks(const Circuit &circuit,
                 const std::vector<GateIdx> &gates) const
{
    std::vector<CxTask> out;
    tasks(circuit, gates, out);
    return out;
}

void
Placement::tasks(const Circuit &circuit,
                 const std::vector<GateIdx> &gates,
                 std::vector<CxTask> &out) const
{
    out.clear();
    out.reserve(gates.size());
    for (GateIdx g : gates) {
        const Gate &gate = circuit.gate(g);
        require(needsBraid(gate.kind),
                "Placement::tasks: gate does not need a braid");
        out.push_back(CxTask::make(g, cellOf(gate.q0), cellOf(gate.q1)));
    }
}

void
Placement::check() const
{
    std::vector<uint8_t> seen(qubit_at_.size(), 0);
    for (Qubit q = 0; q < numQubits(); ++q) {
        const CellId c = cell_of_[static_cast<size_t>(q)];
        require(c >= 0 && c < grid_->numCells(),
                "Placement::check: cell out of range");
        require(!seen[static_cast<size_t>(c)],
                "Placement::check: duplicate tile assignment");
        seen[static_cast<size_t>(c)] = 1;
        require(qubit_at_[static_cast<size_t>(c)] == q,
                "Placement::check: reverse map out of sync");
    }
}

} // namespace autobraid
