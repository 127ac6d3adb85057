/**
 * @file
 * Lattice defect model (fault injection).
 *
 * Fabrication defects or high-error physical patches can make a
 * channel intersection unusable for braiding. A DefectMap marks such
 * vertices dead; the scheduler treats them as permanently blocked.
 * Random generation preserves two invariants required for progress:
 * every tile keeps at least one usable corner, and the routing graph
 * stays connected.
 */

#ifndef AUTOBRAID_LATTICE_DEFECTS_HPP
#define AUTOBRAID_LATTICE_DEFECTS_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "lattice/geometry.hpp"

namespace autobraid {

/** Set of permanently unusable routing vertices. */
class DefectMap
{
  public:
    /** Defect-free map for @p grid. */
    explicit DefectMap(const Grid &grid);

    /** True when @p v is unusable. */
    bool dead(VertexId v) const
    {
        return dead_[static_cast<size_t>(v)] != 0;
    }

    /** Number of dead vertices. */
    size_t deadCount() const { return dead_count_; }

    /**
     * Mark @p v dead. Raises UserError when doing so would leave some
     * tile without a usable corner or disconnect the live routing
     * graph.
     */
    void markDead(const Grid &grid, VertexId v);

    /** Dead vertices as a list (for SchedulerConfig). */
    std::vector<VertexId> deadVertices() const;

    /**
     * Sample up to @p count random defects, skipping candidates that
     * would violate the invariants. May return fewer than requested on
     * small grids.
     */
    static DefectMap random(const Grid &grid, int count, Rng &rng);

  private:
    std::vector<uint8_t> dead_;
    size_t dead_count_ = 0;

    bool wouldViolate(const Grid &grid, VertexId v) const;
};

/**
 * The dead vertices `--defects=@p count` injects into a compile with
 * seed @p seed on @p grid: DefectMap::random, drawn from its own
 * generator derived from the seed, so autobraid_cli and autobraid_lint
 * put defects on the same lattice.
 */
std::vector<VertexId> injectedDefects(const Grid &grid, int count,
                                      uint64_t seed);

} // namespace autobraid

#endif // AUTOBRAID_LATTICE_DEFECTS_HPP
