#include "compiler/passes.hpp"

#include "analysis/diagnostics.hpp"
#include "circuit/coupling.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "place/initial.hpp"
#include "place/linear.hpp"
#include "sched/validator.hpp"

namespace autobraid {

void
ParallelismAnalysisPass::run(CompileContext &ctx)
{
    ctx.grid.emplace(Grid::forQubits(ctx.circuit->numQubits()));
    ctx.report.grid_side = ctx.grid->rows();
    ctx.scheduler = std::make_unique<BraidScheduler>(
        *ctx.circuit, *ctx.grid, ctx.config);
    // The lower bound must use the backend's own gate durations: a
    // braiding-timed CP would exceed achievable lattice-surgery
    // makespans (lsCx < cx) and break the makespan >= CP oracle.
    ctx.report.critical_path =
        ctx.scheduler->dag().criticalPath(backendDurationFn(
            ctx.options.cost, ctx.options.backend));
    ctx.bump("critical_path_cycles",
             static_cast<long>(ctx.report.critical_path));
    ctx.bump("two_qubit_gates",
             static_cast<long>(ctx.circuit->twoQubitCount()));
}

void
InitialPlacementPass::run(CompileContext &ctx)
{
    CompileContext::requireStage(ctx.grid.has_value(), name(),
                                 "no grid; run "
                                 "parallelism-analysis first");
    Rng rng(ctx.options.seed);
    ctx.placement.emplace(initialPlacement(
        *ctx.circuit, *ctx.grid, rng,
        ctx.config.placementFor(ctx.options.policy)));
}

void
SchedulePass::run(CompileContext &ctx)
{
    CompileContext::requireStage(ctx.scheduler != nullptr, name(),
                                 "no scheduler; run "
                                 "parallelism-analysis first");
    CompileContext::requireStage(ctx.placement.has_value(), name(),
                                 "no placement; run "
                                 "initial-placement first");
    ctx.report.result = ctx.scheduler->run(*ctx.placement);

    // The paper sweeps the optimizer trigger p and keeps the best; at
    // minimum the optimizer must never lose to not triggering at all,
    // so AutobraidFull also evaluates the p = 0 (never trigger) run.
    // The optimizer never fires under lattice surgery, so the p = 0
    // re-run would just duplicate the schedule there.
    if (ctx.options.backend == SchedulerBackend::Braiding &&
        ctx.options.policy == SchedulerPolicy::AutobraidFull &&
        ctx.options.best_of_p0 && ctx.options.p_threshold > 0.0) {
        SchedulerConfig no_trigger = ctx.config;
        no_trigger.p_threshold = 0.0;
        const BraidScheduler plain(*ctx.circuit, *ctx.grid,
                                   no_trigger);
        const ScheduleResult alt = plain.run(*ctx.placement);
        if (alt.valid && alt.makespan < ctx.report.result.makespan) {
            ctx.report.result = alt;
            ctx.bump("p0_fallback_won");
        }
    }
}

void
MaslovFallbackPass::run(CompileContext &ctx)
{
    CompileContext::requireStage(ctx.scheduler != nullptr &&
                                     ctx.grid.has_value(),
                                 name(),
                                 "no scheduler; run "
                                 "parallelism-analysis first");
    CompileContext::requireStage(ctx.placement.has_value(), name(),
                                 "no placement; run "
                                 "initial-placement first");
    // The swap network is a braiding construction (its phases braid
    // neighbour SWAPs); it is no alternative for lattice surgery.
    if (ctx.options.backend != SchedulerBackend::Braiding ||
        ctx.options.policy != SchedulerPolicy::AutobraidFull ||
        !ctx.options.allow_maslov)
        return;
    const CouplingGraph coupling(*ctx.circuit);
    if (!coupling.isAllToAllLike(ctx.config.all_to_all_density))
        return;
    ctx.bump("maslov_considered");
    std::vector<Qubit> order(
        static_cast<size_t>(ctx.circuit->numQubits()));
    for (Qubit q = 0; q < ctx.circuit->numQubits(); ++q)
        order[static_cast<size_t>(q)] = q;
    const Placement line = snakePlacement(*ctx.grid, order);
    const ScheduleResult alt = ctx.scheduler->runMaslov(line);
    if (alt.valid && (!ctx.report.result.valid ||
                      alt.makespan < ctx.report.result.makespan)) {
        ctx.report.result = alt;
        ctx.report.used_maslov = true;
        ctx.bump("maslov_won");
    }
}

void
ValidatePass::run(CompileContext &ctx)
{
    if (ctx.report.result.trace.empty())
        return;
    const ValidationReport v = validateSchedule(
        *ctx.circuit, ctx.report.result, ctx.options.cost,
        ctx.grid ? &*ctx.grid : nullptr);
    ctx.bump("validation_errors",
             static_cast<long>(v.errors.size()));
    for (const std::string &e : v.errors)
        ctx.note("validate: " + e);
}

void
ReportPass::run(CompileContext &ctx)
{
    const ScheduleResult &r = ctx.report.result;
    ctx.bump("routed_cx", static_cast<long>(r.braids_routed));
    ctx.bump("deferred_cx", static_cast<long>(r.routing_failures));
    ctx.bump("swaps_inserted", static_cast<long>(r.swaps_inserted));
    ctx.bump("layout_invocations",
             static_cast<long>(r.layout_invocations));
    ctx.bump("dispatch_instants",
             static_cast<long>(r.dispatch_instants));
    ctx.bump("gates_scheduled", static_cast<long>(r.gates_scheduled));

    // Cross-check the lint pass's channel-capacity bound against the
    // achieved makespan. The bound only holds for swap-free *braiding*
    // schedules under the lint-time placement (it is computed from the
    // braid hold window), so skip it once relayout or the Maslov
    // network changed the layout — or another backend ran.
    if (ctx.report.lint && r.valid && r.swaps_inserted == 0 &&
        !ctx.report.used_maslov &&
        r.backend == SchedulerBackend::Braiding) {
        const auto &metrics = ctx.report.lint->metrics();
        const auto it = metrics.find("channel_bound_cycles");
        if (it != metrics.end() && it->second > 0 &&
            static_cast<Cycles>(it->second) > r.makespan) {
            ctx.bump("channel_bound_violations");
            ctx.note(strformat(
                "report: channel-capacity bound %ld cycles exceeds "
                "the achieved makespan %llu — the bound is unsound "
                "for this schedule",
                it->second,
                static_cast<unsigned long long>(r.makespan)));
        }
    }
}

} // namespace autobraid
