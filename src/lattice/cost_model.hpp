/**
 * @file
 * Gate-latency cost model in surface-code cycles.
 *
 * Calibration (DESIGN.md §3.2): one surface-code cycle is 2.2 us
 * (paper §4.2). A CX braid occupies its path for 2d + 2 cycles; Hadamard
 * deforms tile boundaries for d cycles; S costs one cycle; T and
 * synthesized rotations cost a small constant because a steady supply of
 * magic states is assumed at the data (paper's assumption); Pauli gates
 * are free (tracked in the classical Pauli frame); measurement costs d.
 * A SWAP inserted by the layout optimizer is three CX gates holding one
 * braiding path.
 */

#ifndef AUTOBRAID_LATTICE_COST_MODEL_HPP
#define AUTOBRAID_LATTICE_COST_MODEL_HPP

#include "circuit/dag.hpp"
#include "circuit/gate.hpp"

namespace autobraid {

/** Microseconds per surface-code cycle (paper §4.2). */
constexpr double kCycleMicros = 2.2;

/** Latency model parameterized by code distance. */
struct CostModel
{
    int distance = 33;        ///< code distance d (paper's default)

    /** Braid window of a CX gate. */
    Cycles cxCycles() const
    {
        return 2 * static_cast<Cycles>(distance) + 2;
    }

    /** SWAP = 3 sequential CX holding one path. */
    Cycles swapCycles() const { return 3 * cxCycles(); }

    /**
     * Lattice-surgery CX: a d-cycle patch merge followed by a d-cycle
     * split (no +2 braid setup; the bus region is reserved throughout).
     */
    Cycles lsCxCycles() const
    {
        return 2 * static_cast<Cycles>(distance);
    }

    /** Lattice-surgery SWAP = 3 sequential merge+split CX operations. */
    Cycles lsSwapCycles() const { return 3 * lsCxCycles(); }

    /** Hadamard: local boundary deformation. */
    Cycles hCycles() const { return static_cast<Cycles>(distance); }

    /** Measurement in the computational basis. */
    Cycles measureCycles() const { return static_cast<Cycles>(distance); }

    /** S / S-dagger. */
    Cycles sCycles() const { return 1; }

    /** T / T-dagger / synthesized rotation (steady magic-state supply). */
    Cycles tCycles() const { return 2; }

    /** Duration of one gate. */
    Cycles duration(const Gate &g) const;

    /** Duration callback for Dag::criticalPath and the scheduler. */
    DurationFn durationFn() const;

    /** Convert cycles to microseconds. */
    double micros(Cycles c) const
    {
        return static_cast<double>(c) * kCycleMicros;
    }

    /** Convert cycles to seconds. */
    double seconds(Cycles c) const { return micros(c) * 1e-6; }
};

} // namespace autobraid

#endif // AUTOBRAID_LATTICE_COST_MODEL_HPP
