/**
 * @file
 * The standard AutoBraid passes (paper Fig. 10, as pipeline stages).
 *
 *  1. ParallelismAnalysisPass — grid sizing, dependence DAG, critical
 *     path (stage 1: communication-parallelism analysis).
 *  2. InitialPlacementPass — seeded LLG-aware initial placement
 *     (stage 2).
 *  3. SchedulePass — event-driven braid scheduling, plus the p = 0
 *     comparison run for AutobraidFull (stage 3).
 *  4. MaslovFallbackPass — swap-network alternative on all-to-all
 *     coupling patterns (paper §3.3.2).
 *  5. ValidatePass — runs the certifier's rules over a recorded trace
 *     (validateSchedule) and files diagnostics.
 *  6. ReportPass — surfaces the schedule metrics as pass counters.
 *
 * PassManager::standardPipeline() assembles them in this order.
 */

#ifndef AUTOBRAID_COMPILER_PASSES_HPP
#define AUTOBRAID_COMPILER_PASSES_HPP

#include "compiler/pass.hpp"

namespace autobraid {

/** Stage 1: grid, DAG, critical path. */
class ParallelismAnalysisPass final : public Pass
{
  public:
    const char *name() const override { return "parallelism-analysis"; }
    void run(CompileContext &ctx) override;
};

/** Stage 2: seeded initial placement. */
class InitialPlacementPass final : public Pass
{
  public:
    const char *name() const override { return "initial-placement"; }
    void run(CompileContext &ctx) override;
};

/** Stage 3: braid scheduling (+ best-of-p0 for AutobraidFull). */
class SchedulePass final : public Pass
{
  public:
    const char *name() const override { return "schedule"; }
    void run(CompileContext &ctx) override;
};

/** Maslov swap-network alternative for all-to-all patterns. */
class MaslovFallbackPass final : public Pass
{
  public:
    const char *name() const override { return "maslov-fallback"; }
    void run(CompileContext &ctx) override;
};

/** Trace validation (no-op unless a trace was recorded). */
class ValidatePass final : public Pass
{
  public:
    const char *name() const override { return "validate"; }
    void run(CompileContext &ctx) override;
};

/** Metric surfacing: schedule counters into the report. */
class ReportPass final : public Pass
{
  public:
    const char *name() const override { return "report"; }
    void run(CompileContext &ctx) override;
};

} // namespace autobraid

#endif // AUTOBRAID_COMPILER_PASSES_HPP
