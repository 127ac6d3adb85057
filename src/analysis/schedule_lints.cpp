#include "analysis/schedule_lints.hpp"

#include <algorithm>

#include "common/text.hpp"

namespace autobraid {
namespace lint {
namespace {

/** AB401 fires when makespan / lower_bound > this ratio. */
constexpr double kGapThreshold = 2.0;
/** AB402 fires when one vertex is busy >= this share of makespan. */
constexpr double kHotspotShare = 0.5;
/** AB403 fires when an idle gap is >= this share of makespan. */
constexpr double kIdleShare = 0.25;

} // namespace

void
lintSchedule(const ScheduleLintInput &input, DiagnosticEngine &engine)
{
    if (input.makespan == 0)
        return;
    const double makespan = static_cast<double>(input.makespan);

    // AB401: optimality gap against the strongest known lower bound.
    const Cycles lower =
        std::max(input.critical_path, input.channel_bound);
    if (lower > 0) {
        engine.setMetric("schedule_lower_bound_cycles",
                         static_cast<long>(lower));
        const double gap = makespan / static_cast<double>(lower);
        if (gap > kGapThreshold) {
            const char *which =
                input.channel_bound > input.critical_path
                    ? "channel-capacity"
                    : "critical-path";
            engine.report(
                "AB401", SourceLoc{},
                strformat("optimality gap %.2fx: makespan %llu vs "
                          "%s lower bound %llu (threshold %.2fx)",
                          gap,
                          static_cast<unsigned long long>(
                              input.makespan),
                          which,
                          static_cast<unsigned long long>(lower),
                          kGapThreshold));
        }
    }

    // AB402: one vertex busy for a dominant share of the schedule.
    if (!input.vertex_busy_cycles.empty()) {
        const auto hottest = std::max_element(
            input.vertex_busy_cycles.begin(),
            input.vertex_busy_cycles.end());
        const double share =
            static_cast<double>(*hottest) / makespan;
        if (share >= kHotspotShare) {
            engine.report(
                "AB402", SourceLoc{},
                strformat("congestion hotspot: vertex %ld is busy "
                          "%llu of %llu cycles (%.0f%% of the "
                          "schedule)",
                          static_cast<long>(
                              hottest -
                              input.vertex_busy_cycles.begin()),
                          static_cast<unsigned long long>(*hottest),
                          static_cast<unsigned long long>(
                              input.makespan),
                          share * 100.0));
        }
    }

    // AB403: largest stretch of [0, makespan] with no activity.
    if (!input.windows.empty()) {
        std::vector<std::pair<Cycles, Cycles>> spans = input.windows;
        std::sort(spans.begin(), spans.end());
        Cycles idle_total = 0;
        Cycles gap_start = 0, gap_end = 0;
        Cycles covered = 0; // frontier of merged coverage
        for (const auto &[start, release] : spans) {
            if (start > covered) {
                idle_total += start - covered;
                if (start - covered > gap_end - gap_start) {
                    gap_start = covered;
                    gap_end = start;
                }
            }
            covered = std::max(covered, release);
        }
        if (input.makespan > covered) {
            idle_total += input.makespan - covered;
            if (input.makespan - covered > gap_end - gap_start) {
                gap_start = covered;
                gap_end = input.makespan;
            }
        }
        engine.setMetric("schedule_idle_cycles",
                         static_cast<long>(idle_total));
        const Cycles gap = gap_end - gap_start;
        if (static_cast<double>(gap) >=
            kIdleShare * makespan) {
            engine.report(
                "AB403", SourceLoc{},
                strformat("idle-resource window: no braid or merge "
                          "region in flight for cycles [%llu, %llu) "
                          "(%.0f%% of the schedule)",
                          static_cast<unsigned long long>(gap_start),
                          static_cast<unsigned long long>(gap_end),
                          static_cast<double>(gap) / makespan *
                              100.0));
        }
    }
}

} // namespace lint
} // namespace autobraid
