/**
 * @file
 * Braiding-path representation.
 *
 * A path is a simple sequence of adjacent routing vertices from a corner
 * of the source tile to a corner of the target tile. Because braiding is
 * latency-insensitive, a path's quality is measured only by the routing
 * resources (vertices) it consumes.
 */

#ifndef AUTOBRAID_ROUTE_PATH_HPP
#define AUTOBRAID_ROUTE_PATH_HPP

#include <string>
#include <utility>
#include <vector>

#include "lattice/geometry.hpp"

namespace autobraid {

/** An established braiding path. */
struct Path
{
    std::vector<VertexId> vertices;

    /** Number of vertices consumed. */
    size_t length() const { return vertices.size(); }

    bool empty() const { return vertices.empty(); }

    /** First vertex (source-tile corner). */
    VertexId front() const { return vertices.front(); }

    /** Last vertex (target-tile corner). */
    VertexId back() const { return vertices.back(); }

    /**
     * Validate against @p grid: non-empty, consecutive vertices adjacent,
     * no repeated vertex, endpoints on corners of @p src / @p dst.
     * @return empty string when valid, else a diagnostic.
     */
    std::string validate(const Grid &grid, const Cell &src,
                         const Cell &dst) const;

    /** Render as "(r,c) -> (r,c) -> ...". */
    std::string toString(const Grid &grid) const;
};

/** Result of routing one batch of concurrent CX tasks. */
struct RoutingOutcome
{
    /** (task index, path) for every task that was routed. */
    std::vector<std::pair<size_t, Path>> routed;

    /** Task indices that could not be routed this instant. */
    std::vector<size_t> failed;

    /** #routed / #tasks (the paper's scheduling ratio); 1.0 when empty. */
    double
    ratio() const
    {
        const size_t tasks = routed.size() + failed.size();
        return tasks == 0 ? 1.0
                          : static_cast<double>(routed.size()) /
                                static_cast<double>(tasks);
    }
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_PATH_HPP
