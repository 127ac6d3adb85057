#include "compiler/driver.hpp"

#include <chrono>

#include "analysis/certify.hpp"
#include "analysis/lint.hpp"
#include "analysis/schedule_lints.hpp"
#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"
#include "common/text.hpp"
#include "place/initial.hpp"
#include "place/linear.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

namespace {

/**
 * Instruments one stage of compileCircuit() for the rest of the
 * enclosing scope: appends the stage's PassTiming and fills in its
 * seconds on exit, and while a telemetry sink is installed wraps the
 * stage in a `pass.<name>` span.
 */
class Stage
{
  public:
    Stage(CompileReport &report, const char *name)
        : report_(report), index_(report.pass_timings.size()),
          // Built only when a sink records it, so a compile with
          // telemetry off allocates no span name.
          span_(telemetry::current() ? "pass." + std::string(name)
                                     : std::string())
    {
        report.pass_timings.push_back(PassTiming{name, 0});
    }

    // Only stores a double, so nothing can throw out of it.
    ~Stage()
    {
        report_.pass_timings[index_].seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
    }

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

  private:
    CompileReport &report_;
    size_t index_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    telemetry::ScopedSpan span_;
};

/**
 * The lint-time AB202 channel-capacity bound on @p report's makespan,
 * or 0 where it makes no claim. The bound is computed from the braid
 * hold window under the lint-time placement, so it holds only for a
 * valid, swap-free, non-Maslov braiding schedule (see
 * docs/static-analysis.md).
 */
Cycles
soundChannelBound(const CompileReport &report)
{
    const ScheduleResult &r = report.result;
    if (!report.lint || !r.valid || r.swaps_inserted != 0 ||
        report.used_maslov || r.backend != SchedulerBackend::Braiding)
        return 0;
    const auto &metrics = report.lint->metrics();
    const auto it = metrics.find("channel_bound_cycles");
    if (it == metrics.end() || it->second <= 0)
        return 0;
    return static_cast<Cycles>(it->second);
}

/** Fig. 10 stage 1: dependence DAG and critical path. */
BraidScheduler
runParallelismAnalysis(const Circuit &circuit, const Grid &grid,
                       const CompileOptions &options,
                       CompileReport &report)
{
    const Stage stage(report, "parallelism-analysis");
    BraidScheduler scheduler(circuit, grid, options);
    // The lower bound must use the backend's own gate durations: a
    // braiding-timed CP would exceed achievable lattice-surgery
    // makespans (lsCx < cx) and break the makespan >= CP oracle.
    report.critical_path = scheduler.dag().criticalPath(
        backendDurationFn(options.cost, options.backend));
    report.counters["critical_path_cycles"] +=
        static_cast<long>(report.critical_path);
    report.counters["two_qubit_gates"] +=
        static_cast<long>(circuit.twoQubitCount());
    return scheduler;
}

/** Fig. 10 stage 2: seeded LLG-aware initial placement. */
Placement
runInitialPlacement(const Circuit &circuit, const Grid &grid,
                    const CompileOptions &options, CompileReport &report)
{
    const Stage stage(report, "initial-placement");
    Rng rng(options.seed);
    return initialPlacement(circuit, grid, rng,
                            options.placementFor(options.policy));
}

/**
 * Every circuit-level analysis (AB1xx on the gate list, AB2xx on the
 * dead-vertex set, AB3xx on the placement's concurrent layers) into a
 * fresh DiagnosticEngine, published as report.lint. The stage is
 * advisory: it never aborts the compile — exit codes and --lint-werror
 * are the caller's, so batch compiles can collect diagnostics across
 * all circuits before failing.
 */
void
runLint(const Circuit &circuit, const Grid &grid,
        const Placement &placement, const CompileOptions &options,
        CompileReport &report)
{
    const Stage stage(report, "lint");
    auto engine =
        std::make_shared<lint::DiagnosticEngine>(options.lint);
    lint::LintRunConfig cfg;
    cfg.hold = lint::effectiveHold(options.cost,
                                   options.channel_hold_cycles);
    lint::runCircuitAnalyses(circuit, grid, options.dead_vertices,
                             &placement, *engine,
                             /*provenance=*/nullptr, cfg);
    report.lint = engine;

    report.counters["lint_errors"] +=
        static_cast<long>(engine->count(lint::Severity::Error));
    report.counters["lint_warnings"] +=
        static_cast<long>(engine->count(lint::Severity::Warning));
    report.counters["lint_notes"] +=
        static_cast<long>(engine->count(lint::Severity::Note));
    report.counters["lint_suppressed"] +=
        static_cast<long>(engine->suppressedCount());
    for (const auto &[metric, value] : engine->metrics())
        report.counters[metric] += value;
    AUTOBRAID_COUNT("lint.diagnostics",
                    static_cast<long>(engine->diagnostics().size()));

    // Surface error-level findings in the report's diagnostic log so
    // callers see them even without rendering the engine.
    for (const lint::Diagnostic &d : engine->diagnostics())
        if (d.severity == lint::Severity::Error)
            report.diagnostics.push_back("lint: " + d.toString());
}

/** Fig. 10 stage 3: braid scheduling (+ best-of-p0 for AutobraidFull). */
void
runSchedule(const Circuit &circuit, const Grid &grid,
            const BraidScheduler &scheduler, const Placement &placement,
            const CompileOptions &options, CompileReport &report)
{
    const Stage stage(report, "schedule");
    report.result = scheduler.run(placement);

    // The paper sweeps the optimizer trigger p and keeps the best; at
    // minimum the optimizer must never lose to not triggering at all,
    // so AutobraidFull also evaluates the p = 0 (never trigger) run.
    // The optimizer never fires under lattice surgery, so the p = 0
    // re-run would just duplicate the schedule there. Ties keep the
    // triggered run, so the re-run stops once it cannot be strictly
    // shorter.
    if (options.backend == SchedulerBackend::Braiding &&
        options.policy == SchedulerPolicy::AutobraidFull &&
        options.best_of_p0 && options.p_threshold > 0.0) {
        SchedulerConfig no_trigger = options;
        no_trigger.p_threshold = 0.0;
        const BraidScheduler plain(circuit, grid, no_trigger);
        ScheduleResult alt =
            plain.run(placement, RunLimit{report.result.makespan});
        if (alt.valid && alt.makespan < report.result.makespan) {
            report.result = std::move(alt);
            report.counters["p0_fallback_won"] += 1;
        }
    }
}

/** Maslov swap-network alternative on all-to-all patterns (§3.3.2). */
void
runMaslovFallback(const Circuit &circuit, const Grid &grid,
                  const BraidScheduler &scheduler,
                  const CompileOptions &options, CompileReport &report)
{
    const Stage stage(report, "maslov-fallback");
    // The swap network is a braiding construction (its phases braid
    // neighbour SWAPs); it is no alternative for lattice surgery.
    if (options.backend != SchedulerBackend::Braiding ||
        options.policy != SchedulerPolicy::AutobraidFull ||
        !options.allow_maslov)
        return;
    const CouplingGraph coupling(circuit);
    if (!coupling.isAllToAllLike(SchedulerConfig::all_to_all_density))
        return;
    report.counters["maslov_considered"] += 1;
    std::vector<Qubit> order(static_cast<size_t>(circuit.numQubits()));
    for (Qubit q = 0; q < circuit.numQubits(); ++q)
        order[static_cast<size_t>(q)] = q;
    // Like the p = 0 re-run, the network must be strictly shorter than
    // the schedule kept so far (always valid: the standard mode never
    // starves), and stops once it cannot be.
    ScheduleResult alt = scheduler.runMaslov(
        snakePlacement(grid, order), RunLimit{report.result.makespan});
    if (alt.valid && alt.makespan < report.result.makespan) {
        report.result = std::move(alt);
        report.used_maslov = true;
        report.counters["maslov_won"] += 1;
    }
}

/**
 * The certifier's rules over the document --schedule-out writes, with
 * its placement, dead vertices and channel hold, filed as diagnostics;
 * nothing to check when no trace was recorded.
 */
void
runValidate(const Circuit &circuit, const Grid &grid,
            const Placement &placement, const CompileOptions &options,
            CompileReport &report)
{
    const Stage stage(report, "validate");
    if (report.result.trace.empty())
        return;
    const certify::Certificate cert =
        certify::certifySchedule(scheduleDocument(
            scheduleExportInfo(circuit, grid, options, report, &placement),
            report.result));
    report.counters["validation_errors"] +=
        static_cast<long>(cert.violations.size());
    for (const certify::Violation &v : cert.violations)
        report.diagnostics.push_back("validate: " + v.toString());
}

/** Schedule metrics surfaced as report counters. */
void
runReport(CompileReport &report)
{
    const Stage stage(report, "report");
    const ScheduleResult &r = report.result;
    report.counters["routed_cx"] += static_cast<long>(r.braids_routed);
    report.counters["deferred_cx"] +=
        static_cast<long>(r.routing_failures);
    report.counters["swaps_inserted"] +=
        static_cast<long>(r.swaps_inserted);
    report.counters["layout_invocations"] +=
        static_cast<long>(r.layout_invocations);
    report.counters["dispatch_instants"] +=
        static_cast<long>(r.dispatch_instants);
    report.counters["gates_scheduled"] +=
        static_cast<long>(r.gates_scheduled);
    // Telemetry describes the kept schedule, not the portfolio run that
    // happened to finish last.
    if (r.recording) {
        const telemetry::FlightRecording &rec = *r.recording;
        AUTOBRAID_GAUGE("sched.makespan_cycles",
                        static_cast<double>(r.makespan));
        AUTOBRAID_COUNT("sched.stall_cycles.dependence",
                        static_cast<long long>(rec.stall_totals[0]));
        AUTOBRAID_COUNT("sched.stall_cycles.congestion",
                        static_cast<long long>(rec.stall_totals[1]));
        AUTOBRAID_COUNT("sched.stall_cycles.region_conflict",
                        static_cast<long long>(rec.stall_totals[2]));
        AUTOBRAID_COUNT("sched.stall_cycles.defect",
                        static_cast<long long>(rec.stall_totals[3]));
    }

    // Cross-check the lint stage's channel-capacity bound against the
    // achieved makespan.
    const Cycles bound = soundChannelBound(report);
    if (bound > r.makespan) {
        report.counters["channel_bound_violations"] += 1;
        report.diagnostics.push_back(strformat(
            "report: channel-capacity bound %llu cycles exceeds the "
            "achieved makespan %llu — the bound is unsound for this "
            "schedule",
            static_cast<unsigned long long>(bound),
            static_cast<unsigned long long>(r.makespan)));
    }
}

/**
 * The AB4xx schedule-level advisories over plain summary data of the
 * final schedule (makespan, lower bounds, flight-recorder heatmap,
 * traced activity windows), reported into the lint stage's engine so
 * they render with every other diagnostic.
 */
void
runScheduleLint(CompileReport &report)
{
    const Stage stage(report, "schedule-lint");
    const ScheduleResult &r = report.result;
    if (!r.valid || r.makespan == 0)
        return; // nothing scheduled; nothing to advise on
    lint::DiagnosticEngine &engine = *report.lint;
    const size_t before = engine.diagnostics().size();

    lint::ScheduleLintInput input;
    input.makespan = r.makespan;
    input.critical_path = report.critical_path;
    input.channel_bound = soundChannelBound(report);
    if (r.recording)
        input.vertex_busy_cycles = r.recording->vertex_busy_cycles;
    input.windows.reserve(r.trace.size());
    for (const TraceEntry &e : r.trace)
        input.windows.emplace_back(
            e.start, e.channel_release > 0 ? e.channel_release
                                           : e.finish);

    lint::lintSchedule(input, engine);

    report.counters["schedule_lint_findings"] +=
        static_cast<long>(engine.diagnostics().size() - before);
    for (const auto &[metric, value] : engine.metrics())
        if (metric.rfind("schedule_", 0) == 0)
            report.counters[metric] += value;
}

/**
 * Write the `autobraid-schedule` v1 JSON export of the final schedule
 * to CompileOptions::schedule_out (docs/observability.md).
 */
void
runScheduleExport(const Circuit &circuit, const Grid &grid,
                  const Placement &placement,
                  const CompileOptions &options, CompileReport &report)
{
    const Stage stage(report, "schedule-export");
    writeTextFile(options.schedule_out,
                  scheduleToJson(scheduleExportInfo(circuit, grid,
                                                    options, report,
                                                    &placement),
                                 report.result));
    report.counters["schedule_exports"] += 1;
    report.diagnostics.push_back("schedule-export: wrote " +
                                 options.schedule_out);
}

} // namespace

CompileReport
compileCircuit(const Circuit &circuit, const CompileOptions &requested)
{
    requested.validate(circuit);
    CompileOptions options = requested;
    // The export is trace-derived; force the trace on so the certifier
    // sees every scheduled gate.
    if (!options.schedule_out.empty())
        options.record_trace = true;
    const bool linting = options.lint.level != lint::LintLevel::Off;

    const Grid grid = Grid::forQubits(circuit.numQubits());
    CompileReport report;
    report.circuit_name = circuit.name();
    report.policy = options.policy;
    report.backend = options.backend;
    report.num_qubits = circuit.numQubits();
    report.num_gates = circuit.size();
    report.grid_side = grid.rows();
    if (options.telemetry.enabled)
        report.telemetry =
            std::make_shared<telemetry::Telemetry>(options.telemetry);
    // Install the compile's telemetry sink (or actively disable any
    // inherited one when telemetry is off) for the stages' duration.
    const telemetry::TelemetryScope scope(report.telemetry.get());

    const BraidScheduler scheduler =
        runParallelismAnalysis(circuit, grid, options, report);
    const Placement placement =
        runInitialPlacement(circuit, grid, options, report);
    if (linting)
        runLint(circuit, grid, placement, options, report);
    runSchedule(circuit, grid, scheduler, placement, options, report);
    runMaslovFallback(circuit, grid, scheduler, options, report);
    runValidate(circuit, grid, placement, options, report);
    runReport(report);
    if (linting)
        runScheduleLint(report);
    if (!options.schedule_out.empty())
        runScheduleExport(circuit, grid, placement, options, report);

    // Aggregates are *derived* from the instrumented timings so they
    // cannot drift from the per-stage sum.
    for (const PassTiming &t : report.pass_timings)
        report.total_seconds += t.seconds;
    report.placement_seconds = report.passSeconds("initial-placement");
    return report;
}

std::vector<std::pair<double, CompileReport>>
sweepPThreshold(const Circuit &circuit, CompileOptions options,
                const std::vector<double> &thresholds)
{
    std::vector<double> ps = thresholds;
    if (ps.empty())
        for (int i = 0; i <= 9; ++i)
            ps.push_back(0.1 * i);
    options.policy = SchedulerPolicy::AutobraidFull;
    options.best_of_p0 = false; // expose each threshold's raw effect

    std::vector<std::pair<double, CompileReport>> out;
    out.reserve(ps.size());
    for (double p : ps) {
        CompileOptions o = options;
        o.p_threshold = p;
        out.emplace_back(p, compileCircuit(circuit, o));
    }
    return out;
}

long
physicalQubits(const CompileReport &report,
               const SurfaceCodeParams &params, int distance)
{
    return params.physicalQubits(report.grid_side * report.grid_side,
                                 distance);
}

ScheduleExportInfo
scheduleExportInfo(const Circuit &circuit, const Grid &grid,
                   const CompileOptions &options,
                   const CompileReport &report,
                   const Placement *initial)
{
    ScheduleExportInfo info;
    info.circuit = &circuit;
    info.grid = &grid;
    info.policy = report.policy;
    info.distance = options.cost.distance;
    info.channel_hold_cycles = options.channel_hold_cycles;
    info.used_maslov = report.used_maslov;
    info.dead_vertices = options.dead_vertices;
    if (!report.used_maslov && report.result.swaps_inserted == 0 &&
        report.result.layout_invocations == 0)
        info.placement = initial;
    return info;
}

} // namespace autobraid
