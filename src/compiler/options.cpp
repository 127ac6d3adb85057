#include "compiler/options.hpp"

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "lattice/geometry.hpp"

namespace autobraid {

lint::LintOptions
CompileOptions::lintOptions() const
{
    lint::LintOptions out;
    out.level = lint_level;
    out.suppressions = lint_suppressions;
    out.werror = lint_werror;
    return out;
}

namespace {

/** True when @p s names a known code ("AB101") or family ("AB1xx"). */
bool
knownSuppression(const std::string &s)
{
    if (lint::findDiagInfo(s))
        return true;
    if (s.size() < 3 || s.compare(s.size() - 2, 2, "xx") != 0)
        return false;
    const std::string prefix = s.substr(0, s.size() - 2);
    for (const lint::DiagInfo &info : lint::diagnosticCatalog())
        if (std::string(info.code).compare(0, prefix.size(), prefix) ==
            0)
            return true;
    return false;
}

} // namespace

void
CompileOptions::validate(const Circuit &circuit) const
{
    if (circuit.numQubits() <= 0)
        fatal("cannot compile '%s': circuit has no qubits",
              circuit.name().c_str());
    if (p_threshold < 0.0 || p_threshold > 1.0)
        fatal("p_threshold must lie in [0, 1], got %g", p_threshold);
    if (route_jobs < 1)
        fatal("route_jobs must be >= 1, got %d", route_jobs);
    if (cost.distance < 1)
        fatal("code distance must be >= 1, got %d", cost.distance);
    const Grid grid = Grid::forQubits(circuit.numQubits());
    for (VertexId v : dead_vertices)
        if (v < 0 || v >= grid.numVertices())
            fatal("dead vertex %d outside the %dx%d grid "
                  "(%d routing vertices)",
                  v, grid.rows(), grid.cols(), grid.numVertices());
    for (const std::string &s : lint_suppressions)
        if (!knownSuppression(s))
            fatal("unknown lint suppression '%s' (expected a "
                  "diagnostic code like AB101 or a family like AB1xx)",
                  s.c_str());
}

} // namespace autobraid
