#include "compiler/schedule_export_pass.hpp"

#include "common/text.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {

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

void
ScheduleExportPass::run(CompileContext &ctx)
{
    AUTOBRAID_SPAN("pass.schedule-export");
    if (ctx.options.schedule_out.empty())
        return;
    CompileContext::requireStage(ctx.grid.has_value(), name(),
                                 "no grid; run "
                                 "parallelism-analysis first");
    CompileContext::requireStage(
        ctx.report.result.gates_scheduled == 0 ||
            !ctx.report.result.trace.empty(),
        name(), "no trace; schedule export needs record_trace");

    const ScheduleExportInfo info = scheduleExportInfo(
        *ctx.circuit, *ctx.grid, ctx.options, ctx.report,
        ctx.placement ? &*ctx.placement : nullptr);
    writeTextFile(ctx.options.schedule_out,
                  scheduleToJson(info, ctx.report.result));
    ctx.bump("schedule_exports");
    ctx.note("schedule-export: wrote " + ctx.options.schedule_out);
}

} // namespace autobraid
