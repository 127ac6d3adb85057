/**
 * @file
 * Lattice-surgery path finder.
 *
 * A CX is implemented as a patch merge followed by a split (Horsman et
 * al.'s lattice surgery; Paler's braid<->LS translation maps the
 * paper's braids onto it, and Lao et al. treat LS scheduling as the
 * same resource-reservation problem this repo already solves for
 * braids). Instead of a thin vertex-disjoint path for the 2d+2-cycle
 * braid window, this finder returns a merge *region* — an ancilla bus
 * routed corner-to-corner between the operand tiles plus every live
 * corner of both tiles — which the scheduler holds for the whole
 * merge+split window (CostModel::lsCxCycles = 2d cycles). Concurrent
 * regions must be vertex-disjoint, mirroring the requirement that
 * simultaneous merges not share patch boundary.
 *
 * Defect robustness: a region only ever contains *live* vertices (dead
 * corners are excluded from both the bus search and the corner set),
 * and DefectMap guarantees every tile keeps >= 1 live corner with the
 * live routing graph connected — so an otherwise idle machine can
 * always acquire a region for at least one ready gate and the
 * event-driven scheduler cannot deadlock on fuzzed defect sets.
 */

#ifndef AUTOBRAID_SURGERY_SURGERY_MODEL_HPP
#define AUTOBRAID_SURGERY_SURGERY_MODEL_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "route/astar.hpp"
#include "route/stack_finder.hpp"

namespace autobraid {

/** Lattice-surgery backend: merge regions as PathFinder paths. */
class LatticeSurgeryFinder final : public PathFinder
{
  public:
    LatticeSurgeryFinder(const Grid &grid,
                         const std::vector<VertexId> &dead_vertices);

    RoutingOutcome findPaths(const std::vector<CxTask> &tasks,
                             const BlockedBitset &blocked) override;

  private:
    const Grid *grid_;
    AStarRouter router_;
    BlockedBitset dead_;

    // Persistent scratch reused across findPaths() calls, mirroring
    // StackPathFinder's allocation-free inner loop.
    std::vector<size_t> order_;
    std::vector<uint8_t> in_region_;

    /** Corner bitmask of @p cell's live corners (NW/NE/SW/SE bits). */
    unsigned liveCornerMask(const Cell &cell) const;

    /**
     * Assemble the merge region for @p task against @p mask: the bus
     * path first (in path order), then the remaining live corners of
     * both tiles in ascending vertex order. std::nullopt when a live
     * corner is occupied or no bus path exists.
     */
    std::optional<Path> buildRegion(const CxTask &task,
                                    const BlockedBitset &mask);
};

} // namespace autobraid

#endif // AUTOBRAID_SURGERY_SURGERY_MODEL_HPP
