/**
 * @file
 * Scheduler backend selector and backend-aware gate timing.
 *
 * The scheduling core routes every backend through one PathFinder
 * (route/stack_finder.hpp) and times every gate with
 * backendGateDuration below; this header names the two communication
 * backends the repo compares:
 *  - Braiding: a CX is a vertex-disjoint corner-to-corner path held for
 *    the 2d+2-cycle braid window (the paper's model);
 *  - LatticeSurgery: a CX is a patch merge + split occupying an
 *    ancilla-bus region for 2d cycles (Horsman-style lattice surgery,
 *    via Paler's braid<->LS translation; see docs/backends.md).
 *
 * Header-only so layers below the scheduler (the certifier in
 * ab_analysis) can use the enum and its names without linking
 * ab_sched.
 */

#ifndef AUTOBRAID_SCHED_BACKEND_HPP
#define AUTOBRAID_SCHED_BACKEND_HPP

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "lattice/cost_model.hpp"

namespace autobraid {

/** Communication-backend selector. */
enum class SchedulerBackend : uint8_t
{
    Braiding,
    LatticeSurgery,
};

/** Display name of @p backend. */
inline const char *
backendName(SchedulerBackend backend)
{
    switch (backend) {
      case SchedulerBackend::Braiding: return "braiding";
      case SchedulerBackend::LatticeSurgery: return "lattice-surgery";
    }
    panic("backendName: unknown backend %d",
          static_cast<int>(backend));
}

/** CLI spelling of @p backend (--backend=...). */
inline const char *
backendCliName(SchedulerBackend backend)
{
    switch (backend) {
      case SchedulerBackend::Braiding: return "braiding";
      case SchedulerBackend::LatticeSurgery: return "surgery";
    }
    panic("backendCliName: unknown backend %d",
          static_cast<int>(backend));
}

/**
 * Parse a CLI backend name. Raises UserError listing the valid names on
 * anything unrecognized — never silently defaults.
 */
inline SchedulerBackend
parseBackendName(const std::string &name)
{
    if (name == "braiding")
        return SchedulerBackend::Braiding;
    if (name == "surgery" || name == "lattice-surgery")
        return SchedulerBackend::LatticeSurgery;
    fatal("unknown backend '%s' (valid: braiding, surgery)",
          name.c_str());
}

/**
 * Duration of @p g under @p backend. Identical to CostModel::duration
 * for braiding; lattice surgery replaces the CX braid window with the
 * merge+split window (and SWAP with three of them).
 */
inline Cycles
backendGateDuration(const CostModel &cost, SchedulerBackend backend,
                    const Gate &g)
{
    if (backend == SchedulerBackend::LatticeSurgery) {
        if (g.kind == GateKind::CX)
            return cost.lsCxCycles();
        if (g.kind == GateKind::Swap)
            return cost.lsSwapCycles();
    }
    return cost.duration(g);
}

/**
 * Duration callback for Dag::criticalPath and the scheduler, matching
 * what the @p backend actually charges per gate (a braiding-timed
 * critical path would overestimate lattice-surgery lower bounds).
 */
inline DurationFn
backendDurationFn(const CostModel &cost, SchedulerBackend backend)
{
    return [model = cost, backend](const Gate &g) {
        return backendGateDuration(model, backend, g);
    };
}

} // namespace autobraid

#endif // AUTOBRAID_SCHED_BACKEND_HPP
