/**
 * @file
 * ScheduleExportPass: write the `autobraid-schedule` v1 JSON export.
 *
 * Serializes the final ScheduleResult (per-gate windows, paths /
 * merge regions, channel holds) plus the layout context (grid,
 * distance, dead vertices, placement) to
 * CompileOptions::schedule_out, in the format consumed by the
 * independent schedule certifier (analysis/certify.hpp, tool
 * autobraid_certify). See docs/observability.md for the schema.
 *
 * Not part of PassManager::standardPipeline(); compileCircuit()
 * appends it when schedule_out is non-empty (and forces record_trace,
 * since the export is trace-derived).
 */

#ifndef AUTOBRAID_COMPILER_SCHEDULE_EXPORT_PASS_HPP
#define AUTOBRAID_COMPILER_SCHEDULE_EXPORT_PASS_HPP

#include "compiler/pass.hpp"
#include "sched/schedule_export.hpp"

namespace autobraid {

/**
 * The export facts of one compile of @p circuit on @p grid (pointers
 * into both). @p initial, the initial placement, is embedded only
 * while no qubit moved (no swap network, inserted SWAP or relayout):
 * exactly when the certifier's channel bound is sound.
 */
ScheduleExportInfo scheduleExportInfo(const Circuit &circuit,
                                      const Grid &grid,
                                      const CompileOptions &options,
                                      const CompileReport &report,
                                      const Placement *initial = nullptr);

/** Schedule-JSON export stage (requires grid + schedule). */
class ScheduleExportPass final : public Pass
{
  public:
    const char *name() const override { return "schedule-export"; }
    void run(CompileContext &ctx) override;
};

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_SCHEDULE_EXPORT_PASS_HPP
