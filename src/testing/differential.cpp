#include "testing/differential.hpp"

#include <algorithm>
#include <exception>
#include <optional>

#include "analysis/certify.hpp"
#include "analysis/lint.hpp"
#include "circuit/coupling.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "place/initial.hpp"
#include "place/linear.hpp"
#include "place/placement.hpp"
#include "sched/schedule_export.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace fuzz {

namespace {

struct MaskedPolicy
{
    unsigned bit;
    SchedulerPolicy policy;
};

constexpr MaskedPolicy kPolicies[] = {
    {kMaskBaseline, SchedulerPolicy::Baseline},
    {kMaskAutobraidSP, SchedulerPolicy::AutobraidSP},
    {kMaskAutobraidFull, SchedulerPolicy::AutobraidFull},
};

} // namespace

unsigned
parsePolicyMask(const std::string &text)
{
    if (!text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos) {
        // Checked parse: std::stoul would throw std::out_of_range on
        // overflowing digit strings, escaping the UserError contract.
        // Extra high bits are still masked off, as before.
        const unsigned mask =
            static_cast<unsigned>(
                parseCheckedUInt(text, "--policy-mask")) &
            kMaskAll;
        if (mask == 0)
            throw UserError("policy mask selects no policies: " +
                            text);
        return mask;
    }
    unsigned mask = 0;
    for (const std::string &name : split(text, ',')) {
        if (name == "baseline")
            mask |= kMaskBaseline;
        else if (name == "sp")
            mask |= kMaskAutobraidSP;
        else if (name == "full")
            mask |= kMaskAutobraidFull;
        else if (name == "all")
            mask |= kMaskAll;
        else
            throw UserError(
                "unknown policy '" + name +
                "' (expected baseline, sp, full, or all)");
    }
    if (mask == 0)
        throw UserError("policy mask selects no policies: " + text);
    return mask;
}

std::string
policyMaskName(unsigned mask)
{
    std::string out;
    for (const MaskedPolicy &p : kPolicies) {
        if (!(mask & p.bit))
            continue;
        if (!out.empty())
            out += ",";
        out += p.bit == kMaskBaseline     ? "baseline"
               : p.bit == kMaskAutobraidSP ? "sp"
                                           : "full";
    }
    return out.empty() ? "none" : out;
}

std::string
DifferentialResult::toString() const
{
    std::string out;
    for (const std::string &f : failures) {
        if (!out.empty())
            out += "\n";
        out += f;
    }
    return out;
}

double
tracePeakUtilization(const std::vector<TraceEntry> &trace,
                     const Grid &grid,
                     const std::vector<VertexId> &dead_vertices)
{
    // (cycle, change in held vertices). At equal cycles the releases
    // sort first: a hold ending at t no longer counts at t.
    std::vector<std::pair<Cycles, long long>> steps;
    for (const TraceEntry &e : trace) {
        if (e.channel_release <= e.start || e.path.vertices.empty())
            continue;
        const auto n = static_cast<long long>(e.path.vertices.size());
        steps.emplace_back(e.start, n);
        steps.emplace_back(e.channel_release, -n);
    }
    std::sort(steps.begin(), steps.end());
    long long held = 0;
    long long peak = 0;
    for (const auto &step : steps) {
        held += step.second;
        peak = std::max(peak, held);
    }
    std::vector<VertexId> dead = dead_vertices;
    std::sort(dead.begin(), dead.end());
    dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
    const auto routable =
        static_cast<size_t>(grid.numVertices()) - dead.size();
    return routable > 0 ? static_cast<double>(peak) /
                              static_cast<double>(routable)
                        : 0.0;
}

namespace {

void checkRecorderLifecycle(const FuzzCase &c, const char *name,
                            const ScheduleResult &r,
                            std::vector<std::string> &failures);

/** "full" on braiding, "full@surgery" on the other backend. */
std::string
policyLabel(const FuzzCase &c, SchedulerPolicy policy)
{
    return c.options.backend == SchedulerBackend::Braiding
               ? std::string(policyName(policy))
               : strformat("%s@%s", policyName(policy),
                           backendCliName(c.options.backend));
}

/**
 * Certifier oracle: certify the run's schedule in memory
 * (scheduleDocument -> certifySchedule) and require a clean
 * certificate, then push the same schedule through the text front end
 * (scheduleToJson -> certifyScheduleText) and require a byte-identical
 * certificate. A rejection means the scheduler and the certifier
 * disagree about the schedule's semantics; a mismatch means the two
 * front ends disagree about the document. No placement is embedded
 * (compileCircuit keeps it internal), so the anchoring rule and the
 * AB202 channel bound are left to the compile's validate stage, which
 * certifies the document --schedule-out writes (checkPolicyRun reads
 * its validation_errors count); the per-qubit critical-path lower
 * bound is recomputed here and still must not exceed the achieved
 * makespan.
 */
void
checkCertificate(const FuzzCase &c, const char *name,
                 const CompileReport &report,
                 std::vector<std::string> &failures)
{
    auto fail = [&failures, &c, name](const std::string &what) {
        AUTOBRAID_COUNT("fuzz.certify_failures");
        failures.push_back(strformat("[%s] certify: %s — %s", name,
                                     what.c_str(),
                                     c.summary().c_str()));
    };
    const Grid grid = Grid::forQubits(c.circuit.numQubits());
    const ScheduleExportInfo info =
        scheduleExportInfo(c.circuit, grid, c.options, report);
    try {
        const certify::Certificate cert = certify::certifySchedule(
            scheduleDocument(info, report.result));
        if (!cert.ok) {
            std::string what = "rejected the schedule:";
            const size_t shown =
                std::min<size_t>(cert.violations.size(), 3);
            for (size_t i = 0; i < shown; ++i) {
                what += ' ';
                what += cert.violations[i].toString();
                what += ';';
            }
            if (cert.violations.size() > shown)
                what += strformat(" (+%zu more)",
                                  cert.violations.size() - shown);
            fail(what);
        }
        const certify::Certificate text = certify::certifyScheduleText(
            scheduleToJson(info, report.result));
        if (text.toJson() != cert.toJson())
            fail("in-memory and text certificates differ");
    } catch (const std::exception &e) {
        fail(strformat("certification threw: %s", e.what()));
    }
}

/** Compile @p c under @p opt, capturing a throw as the run's error. */
PolicyOutcome
compileRun(const FuzzCase &c, const CompileOptions &opt)
{
    PolicyOutcome run;
    run.policy = opt.policy;
    try {
        run.report = compileCircuit(c.circuit, opt);
        run.compiled = true;
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    return run;
}

/**
 * Check one compiled run and append invariant breaches, each tagged
 * with @p label.
 */
void
checkPolicyRun(const FuzzCase &c, const std::string &label,
               const PolicyOutcome &run,
               std::vector<std::string> &failures)
{
    const char *name = label.c_str();
    auto fail = [&failures, &c, name](const std::string &what) {
        failures.push_back(strformat("[%s] %s — %s", name,
                                     what.c_str(),
                                     c.summary().c_str()));
    };
    if (!run.compiled) {
        fail("compile threw: " + run.error);
        return;
    }
    const ScheduleResult &r = run.report.result;
    if (!r.valid) {
        fail("result marked invalid");
        return;
    }
    checkCertificate(c, name, run.report, failures);
    if (const auto v = run.report.counters.find("validation_errors");
        v != run.report.counters.end() && v->second != 0) {
        AUTOBRAID_COUNT("fuzz.certify_failures");
        fail(strformat("the validate stage found %ld violations",
                       v->second));
    }
    if (r.gates_scheduled != c.circuit.size())
        fail(strformat("retired %zu of %zu gates",
                       r.gates_scheduled, c.circuit.size()));
    if (r.makespan < run.report.critical_path)
        fail(strformat("makespan %llu below critical path %llu",
                       static_cast<unsigned long long>(r.makespan),
                       static_cast<unsigned long long>(
                           run.report.critical_path)));
    // Utilization accounting: both ratios are over the routable fabric,
    // so 0 <= avg <= peak <= 1 must hold for every valid run (the peak
    // is sampled at every dispatch instant, the average over all
    // cycles, so the average can never exceed the peak), and the peak
    // is exactly the one the trace implies.
    const double trace_peak = tracePeakUtilization(
        r.trace, Grid::forQubits(c.circuit.numQubits()),
        c.options.dead_vertices);
    if (r.avg_utilization < 0.0 || r.peak_utilization < 0.0 ||
        r.peak_utilization > 1.0 ||
        r.avg_utilization > r.peak_utilization + 1e-9 ||
        r.peak_utilization != trace_peak) {
        AUTOBRAID_COUNT("fuzz.utilization_violations");
        fail(strformat("utilization invariant broken: avg %.6f "
                       "peak %.6f, trace peak %.6f",
                       r.avg_utilization, r.peak_utilization,
                       trace_peak));
    }
    checkRecorderLifecycle(c, name, r, failures);
    // Lint oracle (when the compile ran with lint enabled): reaching
    // this point means the schedule is valid, so any error-level lint
    // was successfully routed around — but the report stage's
    // cross-check of the AB202 channel-capacity bound, wherever that
    // bound makes a claim, must not have found it unsound.
    if (run.report.counters.count("channel_bound_violations") != 0) {
        AUTOBRAID_COUNT("fuzz.lint_bound_violations");
        fail("the lint channel bound exceeds the makespan (report "
             "counter channel_bound_violations)");
    }
}

/**
 * Flight-recorder oracle: with record_lifecycle on, every retired gate
 * must carry a complete, ordered lifecycle whose attributed stall
 * cycles sum to exactly `dispatched - ready`, and the congestion
 * heatmap must account for every region-hold the trace reserved
 * (Σ path.length × hold). Runs on every fuzz case under whichever
 * backend the case selected, so both backends prove they attribute
 * stalls identically through the scheduler's one PathFinder seam.
 */
void
checkRecorderLifecycle(const FuzzCase &c, const char *name,
                       const ScheduleResult &r,
                       std::vector<std::string> &failures)
{
    auto fail = [&failures, &c, name](const std::string &what) {
        AUTOBRAID_COUNT("fuzz.recorder_violations");
        failures.push_back(strformat("[%s] recorder: %s — %s", name,
                                     what.c_str(),
                                     c.summary().c_str()));
    };
    if (!r.recording) {
        fail("no recording despite record_lifecycle");
        return;
    }
    const telemetry::FlightRecording &rec = *r.recording;
    if (rec.gates.size() != c.circuit.size()) {
        fail(strformat("recording covers %zu of %zu gates",
                       rec.gates.size(), c.circuit.size()));
        return;
    }
    for (size_t g = 0; g < rec.gates.size(); ++g) {
        const telemetry::GateRecord &gr = rec.gates[g];
        if (!gr.complete()) {
            fail(strformat("gate %zu lifecycle incomplete", g));
            continue;
        }
        if (gr.ready > gr.dispatched || gr.dispatched > gr.retired) {
            fail(strformat(
                "gate %zu lifecycle out of order: %llu/%llu/%llu", g,
                static_cast<unsigned long long>(gr.ready),
                static_cast<unsigned long long>(gr.dispatched),
                static_cast<unsigned long long>(gr.retired)));
            continue;
        }
        const uint64_t waited = gr.dispatched - gr.ready;
        if (gr.stallTotal() != waited)
            fail(strformat(
                "gate %zu stall cycles %llu != dispatch-ready %llu",
                g,
                static_cast<unsigned long long>(gr.stallTotal()),
                static_cast<unsigned long long>(waited)));
    }
    // Heatmap accounting against the trace (recorded alongside). Holds
    // are clamped to the schedule window: a channel release past the
    // makespan (teleport-style early-dispatch holds) is trimmed by the
    // scheduler's utilization accounting, mirrored in the heatmap.
    uint64_t expected = 0;
    for (const TraceEntry &e : r.trace) {
        const Cycles end = std::min(e.channel_release, r.makespan);
        if (end <= e.start)
            continue;
        expected +=
            static_cast<uint64_t>(e.path.length()) * (end - e.start);
    }
    if (rec.heatmapSum() != expected)
        fail(strformat(
            "heatmap sum %llu != trace busy cycles %llu",
            static_cast<unsigned long long>(rec.heatmapSum()),
            static_cast<unsigned long long>(expected)));
}

/**
 * The AutobraidFull initial placement of @p c on @p grid, seeded and
 * configured as compileCircuit computes it.
 */
Placement
fullPolicyPlacement(const FuzzCase &c, const Grid &grid)
{
    Rng rng(c.options.seed);
    return initialPlacement(
        c.circuit, grid, rng,
        c.options.placementFor(SchedulerPolicy::AutobraidFull));
}

/**
 * Where two schedules' traces first differ, entry by entry with routed
 * paths ("" when identical).
 */
std::string
traceDifference(const ScheduleResult &a, const ScheduleResult &b)
{
    if (a.trace.size() != b.trace.size())
        return strformat("trace length %zu vs %zu", a.trace.size(),
                         b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        const TraceEntry &x = a.trace[i];
        const TraceEntry &y = b.trace[i];
        if (x.gate != y.gate || x.start != y.start ||
            x.finish != y.finish ||
            x.channel_release != y.channel_release ||
            x.swap_a != y.swap_a || x.swap_b != y.swap_b ||
            x.path.vertices != y.path.vertices)
            return strformat("trace entry %zu diverges", i);
    }
    return "";
}

/** Report counter @p name, 0 when the compile never bumped it. */
long
counterOf(const CompileReport &report, const char *name)
{
    const auto it = report.counters.find(name);
    return it == report.counters.end() ? 0 : it->second;
}

/**
 * Portfolio oracle for an AutobraidFull braiding compile under @p opt:
 * rebuild the driver's portfolio from BraidScheduler runs with no
 * limit (the triggered run, the p = 0 re-run, the Maslov network),
 * keep the winner by the driver's rule (an alternative must be
 * strictly shorter), and require the compile, whose alternatives stop
 * once they cannot win, to have kept the same schedule and counted
 * the same wins. @p placement is the case's full-policy placement on
 * @p grid, computed here unless an earlier oracle already did.
 */
void
checkPortfolio(const FuzzCase &c, const char *name,
               const CompileOptions &opt, const CompileReport &report,
               const Grid &grid, std::optional<Placement> &placement,
               std::vector<std::string> &failures)
{
    auto fail = [&failures, &c, name](const std::string &what) {
        AUTOBRAID_COUNT("fuzz.portfolio_mismatches");
        failures.push_back(strformat("[%s] portfolio: %s — %s", name,
                                     what.c_str(),
                                     c.summary().c_str()));
    };
    AUTOBRAID_COUNT("fuzz.portfolio_checks");
    try {
        if (!placement)
            placement = fullPolicyPlacement(c, grid);
        const BraidScheduler scheduler(c.circuit, grid, opt);
        ScheduleResult best = scheduler.run(*placement);
        long p0_won = 0;
        long maslov_won = 0;
        if (opt.best_of_p0 && opt.p_threshold > 0.0) {
            SchedulerConfig no_trigger = opt;
            no_trigger.p_threshold = 0.0;
            const BraidScheduler plain(c.circuit, grid, no_trigger);
            ScheduleResult alt = plain.run(*placement);
            if (alt.valid && alt.makespan < best.makespan) {
                best = std::move(alt);
                p0_won = 1;
            }
        }
        if (opt.allow_maslov &&
            CouplingGraph(c.circuit).isAllToAllLike(
                SchedulerConfig::all_to_all_density)) {
            std::vector<Qubit> order(
                static_cast<size_t>(c.circuit.numQubits()));
            for (Qubit q = 0; q < c.circuit.numQubits(); ++q)
                order[static_cast<size_t>(q)] = q;
            ScheduleResult alt =
                scheduler.runMaslov(snakePlacement(grid, order));
            if (alt.valid && alt.makespan < best.makespan) {
                best = std::move(alt);
                maslov_won = 1;
            }
        }

        const ScheduleResult &kept = report.result;
        if (kept.makespan != best.makespan)
            fail(strformat(
                "kept makespan %llu, full portfolio %llu",
                static_cast<unsigned long long>(kept.makespan),
                static_cast<unsigned long long>(best.makespan)));
        if (const std::string d = traceDifference(kept, best);
            !d.empty())
            fail(d);
        if (!kept.recording || !best.recording ||
            kept.recording->toJson() != best.recording->toJson())
            fail("flight recordings diverge");
        if (counterOf(report, "p0_fallback_won") != p0_won)
            fail(strformat("p0_fallback_won %ld, full portfolio %ld",
                           counterOf(report, "p0_fallback_won"), p0_won));
        if (counterOf(report, "maslov_won") != maslov_won)
            fail(strformat("maslov_won %ld, full portfolio %ld",
                           counterOf(report, "maslov_won"), maslov_won));
    } catch (const std::exception &e) {
        fail(strformat("unlimited portfolio threw: %s", e.what()));
    }
}

/**
 * Lint-never-crashes oracle: the standalone analyses must complete on
 * every generated circuit/lattice, including cases the compiler later
 * rejects. Uses the full-policy placement like `autobraid_lint`,
 * computed into @p placement on @p grid.
 */
void
checkLintNeverCrashes(const FuzzCase &c, const Grid &grid,
                      std::optional<Placement> &placement,
                      std::vector<std::string> &failures)
{
    try {
        lint::DiagnosticEngine engine(
            lint::LintOptions{lint::LintLevel::All, {}, false});
        placement = fullPolicyPlacement(c, grid);
        lint::LintRunConfig run;
        run.hold = lint::effectiveHold(c.options.cost,
                                       c.options.channel_hold_cycles);
        lint::runCircuitAnalyses(c.circuit, grid,
                                 c.options.dead_vertices, &*placement,
                                 engine, nullptr, run);
    } catch (const std::exception &e) {
        AUTOBRAID_COUNT("fuzz.lint_crashes");
        failures.push_back(strformat("[lint] analyses threw: %s — %s",
                                     e.what(), c.summary().c_str()));
    }
}

} // namespace

DifferentialResult
runDifferentialCase(const FuzzCase &c, unsigned mask,
                    bool lint_oracle)
{
    AUTOBRAID_SPAN("fuzz.differential_case");
    DifferentialResult out;
    out.seed = c.seed;
    // The full-policy placement is annealed once, on first use, for
    // the lint and portfolio oracles: annealing is most of their cost.
    const Grid grid = Grid::forQubits(c.circuit.numQubits());
    std::optional<Placement> placement;
    if (lint_oracle)
        checkLintNeverCrashes(c, grid, placement, out.failures);
    for (const MaskedPolicy &p : kPolicies) {
        if (!(mask & p.bit))
            continue;
        CompileOptions opt = c.options;
        opt.policy = p.policy;
        opt.record_trace = true;
        opt.record_lifecycle = true;
        if (lint_oracle)
            opt.lint.level = lint::LintLevel::All;
        PolicyOutcome run = compileRun(c, opt);
        AUTOBRAID_COUNT("fuzz.policy_runs");
        const std::string label = policyLabel(c, run.policy);
        checkPolicyRun(c, label, run, out.failures);
        if (run.compiled && p.policy == SchedulerPolicy::AutobraidFull &&
            opt.backend == SchedulerBackend::Braiding)
            checkPortfolio(c, label.c_str(), opt, run.report, grid,
                           placement, out.failures);
        out.runs.push_back(std::move(run));
    }
    // Cross-policy: all policies must agree on the dependence-derived
    // critical path (the retired gate sets already agree — each valid
    // run covers the full circuit, enforced above).
    for (size_t i = 1; i < out.runs.size(); ++i) {
        const PolicyOutcome &a = out.runs[0];
        const PolicyOutcome &b = out.runs[i];
        if (a.compiled && b.compiled &&
            a.report.critical_path != b.report.critical_path)
            out.failures.push_back(strformat(
                "[%s vs %s] critical path disagrees: %llu vs %llu — "
                "%s",
                policyName(a.policy), policyName(b.policy),
                static_cast<unsigned long long>(a.report.critical_path),
                static_cast<unsigned long long>(b.report.critical_path),
                c.summary().c_str()));
    }
    out.ok = out.failures.empty();
    if (!out.ok)
        AUTOBRAID_COUNT("fuzz.failed_cases");
    return out;
}

std::vector<std::string>
checkBatchDeterminism(const FuzzCase &c, unsigned mask, int threads)
{
    AUTOBRAID_SPAN("fuzz.batch_determinism");
    auto runBatch = [&](int workers) {
        BatchOptions bopt;
        bopt.threads = workers;
        bopt.derive_seeds = false; // keep the case's own seed
        BatchCompiler batch(bopt);
        for (const MaskedPolicy &p : kPolicies) {
            if (!(mask & p.bit))
                continue;
            CompileOptions opt = c.options;
            opt.policy = p.policy;
            opt.record_trace = true;
            batch.add(c.circuit, opt,
                      strformat("%s/%s", c.circuit.name().c_str(),
                                policyName(p.policy)));
        }
        return batch.compileAll();
    };
    const auto serial = runBatch(1);
    const auto parallel = runBatch(threads);
    std::vector<std::string> failures;
    if (serial.size() != parallel.size()) {
        failures.push_back("batch result counts differ");
        return failures;
    }
    for (size_t i = 0; i < serial.size(); ++i) {
        if (serial[i].ok != parallel[i].ok) {
            failures.push_back(strformat(
                "[%s] jobs=1 ok=%d but jobs=%d ok=%d — %s",
                serial[i].label.c_str(), serial[i].ok ? 1 : 0,
                threads, parallel[i].ok ? 1 : 0,
                c.summary().c_str()));
            continue;
        }
        if (serial[i].ok &&
            serial[i].report.metricsSummary() !=
                parallel[i].report.metricsSummary())
            failures.push_back(strformat(
                "[%s] jobs=1 vs jobs=%d metrics summaries diverge — "
                "%s",
                serial[i].label.c_str(), threads,
                c.summary().c_str()));
    }
    return failures;
}

std::vector<std::string>
checkRouteJobsDeterminism(const FuzzCase &c, unsigned mask, int jobs)
{
    AUTOBRAID_SPAN("fuzz.route_jobs_determinism");
    std::vector<std::string> failures;
    for (const MaskedPolicy &p : kPolicies) {
        if (!(mask & p.bit))
            continue;
        auto runOne = [&](int route_jobs, CompileReport &report,
                          std::string &error) {
            CompileOptions opt = c.options;
            opt.policy = p.policy;
            opt.record_trace = true;
            opt.record_lifecycle = true;
            opt.route_jobs = route_jobs;
            opt.telemetry.enabled = true;
            opt.telemetry.spans = false;
            try {
                report = compileCircuit(c.circuit, opt);
                return true;
            } catch (const std::exception &e) {
                error = e.what();
                return false;
            }
        };
        CompileReport serial, parallel;
        std::string serial_err, parallel_err;
        const bool serial_ok = runOne(1, serial, serial_err);
        const bool parallel_ok = runOne(jobs, parallel, parallel_err);
        auto mismatch = [&](const std::string &what) {
            failures.push_back(strformat(
                "[%s] route_jobs=1 vs route_jobs=%d: %s — %s",
                policyName(p.policy), jobs, what.c_str(),
                c.summary().c_str()));
        };
        if (serial_ok != parallel_ok) {
            mismatch(strformat(
                "ok=%d vs ok=%d (%s)", serial_ok ? 1 : 0,
                parallel_ok ? 1 : 0,
                (serial_ok ? parallel_err : serial_err).c_str()));
            continue;
        }
        if (!serial_ok) // same failure either way: deterministic
            continue;
        const ScheduleResult &a = serial.result;
        const ScheduleResult &b = parallel.result;
        if (a.makespan != b.makespan) {
            mismatch(strformat(
                "makespan %llu vs %llu",
                static_cast<unsigned long long>(a.makespan),
                static_cast<unsigned long long>(b.makespan)));
            continue;
        }
        if (const std::string d = traceDifference(a, b); !d.empty())
            mismatch(d);
        if (a.recording && b.recording &&
            a.recording->toJson() != b.recording->toJson())
            mismatch("flight recordings diverge");
        if (serial.telemetry->metrics().toJson() !=
            parallel.telemetry->metrics().toJson())
            mismatch("metrics snapshots diverge");
    }
    return failures;
}

DifferentialResult
runDegenerateGridCase(uint64_t seed, unsigned mask,
                      SchedulerBackend backend)
{
    AUTOBRAID_SPAN("fuzz.degenerate_case");
    Rng rng(seed ^ 0xdead'1a77'1ceeULL);
    DifferentialResult out;
    out.seed = seed;

    // A strip lattice the pipeline's square Grid::forQubits never
    // exercises, with two spare cells so the layout optimizer has
    // somewhere to move qubits.
    const int qubits = rng.intIn(2, 8);
    const bool horizontal = rng.chance(0.5);
    const int cells = qubits + 2;
    const Grid grid = horizontal ? Grid(1, cells) : Grid(cells, 1);

    FuzzCircuitOptions copt;
    copt.num_qubits = qubits;
    copt.num_gates = rng.intIn(1, 30);
    copt.cx_fraction = 0.6;
    Circuit circuit = makeFuzzCircuit(FuzzShape::Chain, copt, rng);
    circuit.setName(strformat("fuzz-strip-%llu",
                              static_cast<unsigned long long>(seed)));

    FuzzCase shim;
    shim.seed = seed;
    shim.shape = FuzzShape::Chain;
    shim.circuit = circuit;

    const Placement placement(grid, qubits);
    for (const MaskedPolicy &p : kPolicies) {
        if (!(mask & p.bit))
            continue;
        SchedulerConfig config;
        config.policy = p.policy;
        config.backend = backend;
        config.seed = seed;
        config.record_trace = true;
        config.record_lifecycle = true;
        PolicyOutcome run;
        run.policy = p.policy;
        try {
            const BraidScheduler sched(circuit, grid, config);
            ScheduleResult r = sched.run(placement);
            run.compiled = true;
            run.report.result = std::move(r);
            run.report.circuit_name = circuit.name();
            run.report.policy = p.policy;
        } catch (const std::exception &e) {
            run.error = e.what();
        }
        const char *name = policyName(p.policy);
        if (!run.compiled) {
            out.failures.push_back(strformat(
                "[%s] strip grid %dx%d: scheduler threw: %s", name,
                grid.rows(), grid.cols(), run.error.c_str()));
        } else {
            const ScheduleResult &r = run.report.result;
            if (!r.valid) {
                out.failures.push_back(strformat(
                    "[%s] strip grid %dx%d: result invalid", name,
                    grid.rows(), grid.cols()));
            } else {
                const ValidationReport v =
                    validateSchedule(circuit, r, config.cost, &grid);
                if (!v.ok) {
                    AUTOBRAID_COUNT("fuzz.validator_failures");
                    out.failures.push_back(strformat(
                        "[%s] strip grid %dx%d seed %llu: %s", name,
                        grid.rows(), grid.cols(),
                        static_cast<unsigned long long>(seed),
                        v.toString().c_str()));
                }
                checkRecorderLifecycle(shim, name, r, out.failures);
            }
        }
        out.runs.push_back(std::move(run));
    }
    out.ok = out.failures.empty();
    if (!out.ok)
        AUTOBRAID_COUNT("fuzz.failed_cases");
    return out;
}

} // namespace fuzz
} // namespace autobraid
