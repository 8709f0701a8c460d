// SchedulingPolicy — the value type users hand to the environment to say
// *how* an application should be scheduled (docs/SCHEDULING.md).
//
// The policy decouples the *request* ("schedule this with HEFT, honour my
// access domain, penalize stale samples") from the *implementation* (a row
// of the strategy table in sched/strategy.hpp), so new strategies plug in
// without touching the runtime or the environment API.
#pragma once

#include <cstdint>
#include <string>

#include "common/time.hpp"
#include "db/user_accounts.hpp"

namespace vdce::sched {

/// Objective of the VDCE site scheduler family (ablation of Fig. 2 — see
/// site_scheduler.hpp for the two fidelity modes):
///  * kPaperObjective    — the literal Fig. 2 objective (transfer + static
///    host-selection prediction, occupancy ignored);
///  * kAvailabilityAware — re-rank candidates by earliest finish given
///    current machine occupancy (default).
enum class SiteObjective { kPaperObjective, kAvailabilityAware };

/// Which task priority drives the ready-list (ablation of the §3 design
/// choice "level of each node ... computation costs" — see
/// bench_levels_ablation):
///  * kPaperLevels — computation-only levels, the paper's rule;
///  * kCommLevels  — levels including mean edge-transfer costs (upward
///    rank, the HEFT-style refinement);
///  * kFifo        — no levels: ready tasks in task-id order.
enum class PriorityMode { kPaperLevels, kCommLevels, kFifo };

/// How one application should be scheduled.
struct SchedulingPolicy {
  /// Strategy-table row name (sched::strategies() lists them: "vdce-level",
  /// "heft", "min-min", "max-min", "b-level", "t-level", "work-stealing",
  /// ...).  Empty selects the default VDCE strategy implied by `objective`
  /// ("vdce-level", or "vdce-level-paper" under kPaperObjective) — exactly
  /// the pre-policy behaviour.  Unknown names are rejected with a typed
  /// kInvalidArgument error before any scheduling work starts.
  std::string strategy;

  // --- tuning of the VDCE strategy family (ignored by strategies that have
  // --- no equivalent knob; each strategy's description says which apply) --
  SiteObjective objective = SiteObjective::kAvailabilityAware;
  PriorityMode priority = PriorityMode::kPaperLevels;

  /// Honour the user's access-domain restriction (local / neighbours /
  /// global) when forming the candidate site set.  The environment clamps
  /// this to the session account's domain.
  db::AccessDomain access = db::AccessDomain::kGlobal;

  /// Graceful degradation under stale monitoring data: a host whose last
  /// repository sample is older than `stale_after` (relative to
  /// SchedulerContext::now) has its predicted times multiplied by
  /// sched::kStalePenalty (site_scheduler.hpp), so fresh information wins
  /// ties and silently muted monitors stop attracting work.  0 disables the
  /// check (default — the offline planners have no meaningful clock).
  common::SimDuration stale_after = 0.0;

  /// Seed for strategies with randomized tie-breaking ("random").
  std::uint64_t seed = 42;

  // --- advance reservations (docs/RESERVATIONS.md) ------------------------
  /// Conservative backfill around committed reservation windows: when true
  /// (default), a machine with a *pending* foreign window may still run a
  /// task whose guarded completion estimate lands before the window's
  /// start; when false, any pending foreign window makes the machine
  /// inadmissible until the window ends.  Either way an *active* foreign
  /// window always blocks — a backfilled application may never delay a
  /// committed window's start.  The completion estimate is guarded by a
  /// fixed safety factor (kBackfillGuard in host_filter.cpp).
  /// Irrelevant (a single never-taken branch) while no windows are
  /// committed.
  bool backfill = true;

  // --- economy (docs/ECONOMY.md) ------------------------------------------
  /// User-level economic constraints, in seconds of simulated time and G$
  /// respectively; 0 means unconstrained.  The environment copies
  /// RunOptions.deadline / RunOptions.budget here at submission so the
  /// strategy sees exactly what the user asked for.  Only the
  /// cost-aware strategies ("dbc-cost", "dbc-time") read them; with both at
  /// zero those strategies place identically to the default time-optimising
  /// path (tests/test_differential.cpp pins this).
  double deadline = 0.0;
  double budget = 0.0;
};

}  // namespace vdce::sched
