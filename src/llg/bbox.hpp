/**
 * @file
 * CX-gate bounding-box geometry (paper §3.3.1 and Appendix).
 *
 * Defines the routing task for one CX gate (operand tiles + outer
 * bounding box), the *inner* bounding box (the minimal box containing at
 * least one corner vertex of each operand tile), the straight-line path
 * between the two closest corners, and the *strict interference* relation
 * used by the Theorem 6 case analysis and by the AB302 lint. The
 * interference graph and the layout optimizer use outer-box
 * intersection instead.
 */

#ifndef AUTOBRAID_LLG_BBOX_HPP
#define AUTOBRAID_LLG_BBOX_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "lattice/geometry.hpp"

namespace autobraid {

/** One CX gate to route: its identity and its operand tiles. */
struct CxTask
{
    GateIdx gate = 0;
    Cell a;
    Cell b;
    BBox bbox;          ///< outer bounding box of the two tiles
    long priority = 0;  ///< criticality (higher = more urgent)

    /** Build a task, computing the outer bounding box. */
    static CxTask make(GateIdx gate, const Cell &a, const Cell &b);
};

/** Outer bounding box of a CX between tiles @p a and @p b. */
BBox outerBBox(const Cell &a, const Cell &b);

/**
 * Inner bounding box: the minimal box enclosing at least one corner
 * vertex of each operand tile — i.e. the span between the two closest
 * corners. Degenerates to a segment or point for aligned/adjacent tiles.
 */
BBox innerBBox(const Cell &a, const Cell &b);

/**
 * The two closest corner vertices (one per tile) defining the
 * straight-line path of the CX (paper §3.2). When several pairs tie,
 * the lexicographically smallest pair is returned for determinism.
 */
std::pair<Vertex, Vertex> closestCorners(const Cell &a, const Cell &b);

/**
 * Strict interference (Appendix, proof of Theorem 6): CX gates A and B
 * strictly interfere when A's straight-line path intersects B's
 * straight-line path or a corner vertex of one of B's operand tiles
 * (or vice versa).
 */
bool strictlyInterferes(const CxTask &ta, const CxTask &tb);

} // namespace autobraid

#endif // AUTOBRAID_LLG_BBOX_HPP
