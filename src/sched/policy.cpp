#include "sched/policy.hpp"

#include "common/error.hpp"

namespace autobraid {

const char *
policyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Baseline: return "GP w. initM";
      case SchedulerPolicy::AutobraidSP: return "autobraid-sp";
      case SchedulerPolicy::AutobraidFull: return "autobraid-full";
    }
    panic("policyName: unknown policy %d", static_cast<int>(policy));
}

const char *
policyCliName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Baseline: return "baseline";
      case SchedulerPolicy::AutobraidSP: return "sp";
      case SchedulerPolicy::AutobraidFull: return "full";
    }
    panic("policyCliName: unknown policy %d",
          static_cast<int>(policy));
}

SchedulerPolicy
parsePolicyName(const std::string &name)
{
    if (name == "baseline")
        return SchedulerPolicy::Baseline;
    if (name == "sp")
        return SchedulerPolicy::AutobraidSP;
    if (name == "full")
        return SchedulerPolicy::AutobraidFull;
    fatal("unknown policy '%s' (valid: baseline, sp, full)",
          name.c_str());
}

InitialPlacementConfig
SchedulerConfig::placementFor(SchedulerPolicy p) const
{
    InitialPlacementConfig cfg = placement;
    if (p == SchedulerPolicy::Baseline) {
        // The baseline keeps METIS-style mapping but has no LLG-aware
        // fine-tuning, no special-case layouts, and no per-tile
        // arrangement inside a partition block.
        cfg.use_annealer = false;
        cfg.use_linear_special = false;
        cfg.leaf_cells = 4;
    }
    return cfg;
}

} // namespace autobraid
