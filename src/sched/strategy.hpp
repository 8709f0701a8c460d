// The strategy table — every scheduling decision backend, offline and on the
// live runtime (docs/SCHEDULING.md).
//
// The Fig. 2 flow splits naturally in two: the *protocol* half (multicast
// the AFG to the candidate sites, gather each site's host-selection output)
// and the *decision* half (turn those outputs into a resource allocation
// table).  The decision half is one closed, constant table: each row is a
// name, a description and a free assign function with one signature.
// Adding a strategy means adding a row.
//
// Both faces of the protocol half run every row the same way:
//  * the live runtime (runtime/site_manager) resolves the policy, gathers
//    the outputs over the fabric from candidate_site_set(resolved policy),
//    then calls the row;
//  * plan() does the same synchronously, calling each candidate site's
//    host-selection algorithm directly.
//
// Contract for a row's assign():
//  * `outputs` points at one HostSelectionOutput per candidate site that
//    bid, local site first: the one information base of every row.  The
//    caller owns the outputs (plan() its local vector, the runtime its own
//    output and the shared sm.bids replies), so no row copies one.  The
//    VDCE rows assign from them directly, the offline planners through one
//    PlannerView (sched/schedule_builder.hpp); a site that did not bid (a
//    partition, a dead server) gets no work from any row.
//  * Every output ranks each task kind once (TaskKinds), and all of them
//    share the request's kinds: a row resolves a task's performance record
//    and reads its ranking per kind, never per task.
//  * Every row places only on hosts the placement's HostFilter admits
//    (sched/host_filter.hpp), and fails with kNoFeasibleResource when a
//    task has none, which the environment defers under contention.
//  * `policy` is the resolved policy (resolve()): `policy.strategy` is the
//    row's name and the row's fixed settings are applied.
//  * The returned table's `scheduler_name` is the row's name, which is how
//    ExecutionReport attributes the schedule.
//  * Determinism: same graph + context + outputs + policy yield the same
//    table (randomized rows derive their RNG from the policy seed).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "afg/graph.hpp"
#include "common/expected.hpp"
#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/support.hpp"
#include "sched/types.hpp"

namespace vdce::sched {

/// The decision half of Fig. 2: host-selection outputs in, resource
/// allocation table out.
using AssignFn = common::Expected<ResourceAllocationTable> (*)(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

/// One row of the strategy table.
struct Strategy {
  std::string_view name;
  std::string_view description;
  AssignFn assign;
};

/// Every strategy, in table order (the VDCE rows first).
[[nodiscard]] std::span<const Strategy> strategies();

/// A policy bound to its row.
struct ResolvedPolicy {
  const Strategy* row = nullptr;
  /// The input policy with `strategy` set to the row's name and the row's
  /// fixed settings applied: the objective of "vdce-level",
  /// "vdce-level-paper" and "vdce-local", and the local-site access domain
  /// of "vdce-local".
  SchedulingPolicy policy;
};

/// Resolve `policy` to its row.  An empty `policy.strategy` selects the
/// VDCE default implied by the objective ("vdce-level", or
/// "vdce-level-paper" under kPaperObjective).  Unknown names are
/// kInvalidArgument, and the message lists every known name; nothing ever
/// silently falls back to the default.  Environments call this at bring-up
/// and submission so bad names fail fast.
[[nodiscard]] common::Expected<ResolvedPolicy> resolve(
    const SchedulingPolicy& policy);

/// The synchronous Fig. 2 pipeline for every row: resolve the policy, run
/// host selection at each site of candidate_site_set(resolved policy),
/// local first, then call the row.
[[nodiscard]] common::Expected<ResourceAllocationTable> plan(
    const afg::Afg& graph, const SchedulerContext& context,
    const SchedulingPolicy& policy = {});

}  // namespace vdce::sched
