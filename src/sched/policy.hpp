/**
 * @file
 * Scheduler policies and configuration.
 *
 * Three policies reproduce the paper's comparison:
 *  - Baseline: the GP greedy scheduler of Javadi-Abhari et al. [10] with
 *    METIS-style initial mapping ("GP w. initM") — static placement,
 *    shortest-distance-first greedy routing;
 *  - AutobraidSP: the stack-based path finder with LLG-aware initial
 *    placement ("autobraid-sp");
 *  - AutobraidFull: AutobraidSP plus the dynamic layout optimizer and the
 *    Maslov swap-network alternative for all-to-all patterns
 *    ("autobraid-full").
 */

#ifndef AUTOBRAID_SCHED_POLICY_HPP
#define AUTOBRAID_SCHED_POLICY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/cost_model.hpp"
#include "lattice/geometry.hpp"
#include "place/initial.hpp"
#include "route/greedy_finder.hpp"
#include "sched/backend.hpp"

namespace autobraid {

/** Scheduling policy selector. */
enum class SchedulerPolicy : uint8_t
{
    Baseline,
    AutobraidSP,
    AutobraidFull,
};

/** Display name of @p policy. */
const char *policyName(SchedulerPolicy policy);

/** CLI spelling of @p policy (--policy=...). */
const char *policyCliName(SchedulerPolicy policy);

/**
 * Parse a CLI policy name. Raises UserError listing the valid names on
 * anything unrecognized — never silently defaults.
 */
SchedulerPolicy parsePolicyName(const std::string &name);

/** Full scheduler configuration. */
struct SchedulerConfig
{
    SchedulerPolicy policy = SchedulerPolicy::AutobraidFull;

    /**
     * Communication backend. Braiding reserves vertex-disjoint paths;
     * lattice surgery reserves merge regions (src/surgery/). The layout
     * optimizer and the Maslov swap network are braiding-only.
     */
    SchedulerBackend backend = SchedulerBackend::Braiding;

    CostModel cost;

    /**
     * Layout-optimizer trigger (paper's p%): when the fraction of
     * ready CX gates that got a path falls below this, insert SWAPs.
     * Only AutobraidFull uses it.
     */
    double p_threshold = 0.3;

    /** Consider the Maslov swap network for all-to-all patterns. */
    bool allow_maslov = true;

    /** Density above which a coupling graph counts as all-to-all. */
    static constexpr double all_to_all_density = 0.5;

    /** Seed for placement randomness. */
    uint64_t seed = 2021;

    /**
     * Task ordering used by the Baseline policy's greedy router.
     * Distance is the paper's "GP" (its best policy); Criticality and
     * Program reproduce two more of the original seven for ablations.
     */
    GreedyOrder baseline_order = GreedyOrder::Distance;

    /**
     * Communication-channel hold time. 0 (default) models double-
     * defect *braiding*: a CX's path is occupied for the entire CX
     * window (2d+2 cycles). A positive value models planar-code
     * *teleportation*: the channel only carries EPR distribution for
     * that many cycles, then frees while the CX completes locally —
     * the alternative communication mode of Javadi-Abhari et al. [10]
     * that the paper's conclusion argues against (planar tiles cost
     * ~2x the physical qubits).
     */
    Cycles channel_hold_cycles = 0;

    /**
     * Worker threads for component-parallel routing: independent
     * interference-graph components of one dispatch instant route
     * concurrently in the stack finder. Any value >= 1 produces
     * byte-identical schedules — the component order, per-component
     * routing, and merge are worker-count-independent — so this is
     * purely a wall-clock knob.
     */
    int route_jobs = 1;

    /** Record a full TraceEntry log in the result (tests, debugging). */
    bool record_trace = false;

    /**
     * Compute the flight recording (per-gate lifecycles, stall
     * attribution, the per-vertex congestion heatmap) into
     * ScheduleResult::recording at run end (flightRecording in
     * sched/scheduler.hpp). The run then keeps its trace, returned
     * only under record_trace, and logs its blocked examinations.
     */
    bool record_lifecycle = false;

    /**
     * Permanently unusable routing vertices (lattice defects; see
     * lattice/defects.hpp). When non-empty, the baseline policy falls
     * back to all-corner endpoints so a dead NW corner cannot strand a
     * tile.
     */
    std::vector<VertexId> dead_vertices;

    /** Initial-placement pipeline settings. */
    InitialPlacementConfig placement;

    /** Derive the stage-appropriate placement config for a policy. */
    InitialPlacementConfig placementFor(SchedulerPolicy p) const;
};

} // namespace autobraid

#endif // AUTOBRAID_SCHED_POLICY_HPP
