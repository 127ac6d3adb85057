#include "compiler/driver.hpp"

#include "circuit/circuit.hpp"
#include "compiler/lint_pass.hpp"
#include "compiler/schedule_export_pass.hpp"
#include "compiler/schedule_lint_pass.hpp"

namespace autobraid {

CompileReport
runPassPipeline(const Circuit &circuit, const CompileOptions &options,
                const PassManager &passes)
{
    options.validate(circuit);
    CompileContext ctx(circuit, options);
    // Install the context's telemetry sink (or actively disable any
    // inherited one when telemetry is off) for the pipeline's duration.
    const telemetry::TelemetryScope scope(ctx.telemetry.get());
    passes.run(ctx);
    return std::move(ctx.report);
}

CompileReport
compileCircuit(const Circuit &circuit, const CompileOptions &options)
{
    PassManager passes = PassManager::standardPipeline();
    // Linting is opt-in: the standard pipeline (and the tests pinning
    // its exact pass list) stays unchanged unless a level is set.
    if (options.lint_level != lint::LintLevel::Off) {
        passes.insertAfter("initial-placement",
                           std::make_unique<LintPass>());
        passes.append(std::make_unique<ScheduleLintPass>());
    }
    if (!options.schedule_out.empty()) {
        passes.append(std::make_unique<ScheduleExportPass>());
        // The export is trace-derived; force the trace on so the
        // certifier sees every scheduled gate.
        CompileOptions patched = options;
        patched.record_trace = true;
        return runPassPipeline(circuit, patched, passes);
    }
    return runPassPipeline(circuit, options, passes);
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

} // namespace autobraid
