/**
 * @file
 * Qubit-to-tile placement.
 *
 * A Placement is an injective map from logical qubits to grid tiles.
 * AutoBraid's key departure from the baseline is that placements are
 * *dynamic*: the layout optimizer exchanges qubits with SWAP gates during
 * scheduling, so Placement supports cheap swap/move updates and reverse
 * lookup.
 */

#ifndef AUTOBRAID_PLACE_PLACEMENT_HPP
#define AUTOBRAID_PLACE_PLACEMENT_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "lattice/geometry.hpp"
#include "llg/bbox.hpp"

namespace autobraid {

/** Injective qubit -> tile assignment with reverse lookup. */
class Placement
{
  public:
    /**
     * Row-major identity placement: qubit q at cell q.
     * Requires num_qubits <= grid.numCells().
     */
    Placement(const Grid &grid, int num_qubits);

    /** Number of placed qubits. */
    int numQubits() const { return static_cast<int>(cell_of_.size()); }

    /** The grid this placement lives on. */
    const Grid &grid() const { return *grid_; }

    /** Tile of qubit @p q. */
    Cell cellOf(Qubit q) const { return grid_->cell(cellIdOf(q)); }

    /** Dense tile id of qubit @p q. */
    CellId cellIdOf(Qubit q) const
    {
        if (q < 0 || q >= numQubits()) [[unlikely]]
            panic("Placement: qubit out of range");
        return cell_of_[static_cast<size_t>(q)];
    }

    /** Dense tile id of every qubit: cellIds()[q] is cellIdOf(q). */
    const std::vector<CellId> &cellIds() const { return cell_of_; }

    /** Qubit at tile @p c, or kNoQubit when the tile is empty. */
    Qubit qubitAt(CellId c) const;

    /** Exchange the tiles of qubits @p a and @p b. */
    void swapQubits(Qubit a, Qubit b);

    /** Move qubit @p q to the empty tile @p c. */
    void moveTo(Qubit q, CellId c);

    /** Apply a full assignment: @p cells[q] is the tile id of qubit q. */
    void assign(const std::vector<CellId> &cells);

    /**
     * Build the routing tasks for a set of braid-requiring gates of
     * @p circuit under this placement.
     */
    std::vector<CxTask> tasks(const Circuit &circuit,
                              const std::vector<GateIdx> &gates) const;

    /** tasks() into a caller-owned buffer (allocation-free reuse). */
    void tasks(const Circuit &circuit,
               const std::vector<GateIdx> &gates,
               std::vector<CxTask> &out) const;

    /** Validate injectivity and bounds; raises InternalError on failure. */
    void check() const;

  private:
    const Grid *grid_;
    std::vector<CellId> cell_of_;       // qubit -> cell id
    std::vector<Qubit> qubit_at_;       // cell id -> qubit or kNoQubit
};

} // namespace autobraid

#endif // AUTOBRAID_PLACE_PLACEMENT_HPP
