// Site Scheduler Algorithm — Figure 2 of the paper.
//
//   1. Receive the application flow graph from the Application Editor.
//   2. Select the k nearest VDCE neighbour sites S_remote = {S1..Sk}.
//   3. Multicast the AFG to each site in S_remote.
//   4. Call the Host-Selection Algorithm (local and remote sites).
//   5. Receive each site's host-selection output.
//   6. ready_tasks = entry nodes.
//   7. For each task in ready_tasks (highest level first):
//        - entry task / no input required:
//            assign to the site minimizing Predict(task, R_j);
//        - otherwise:
//            Time_total(task, S_j) = transfer_time(S_parent, S_j) x file_size
//                                     + Predict(task, R_j)
//            assign to the site minimizing Time_total;
//        store the allocation, remove the task from ready_tasks, add its
//        children (once all their parents are placed).
//
// Priorities come from the level computation (levels.hpp): "the node with a
// higher level value will have a higher priority for scheduling" (§3).
//
// Two fidelity modes, selectable for ablation (bench_fig2_site_scheduler):
//  * kPaperObjective  — the literal Fig. 2 objective: per-site transfer
//    term plus the static host-selection prediction, ignoring machine
//    occupancy.  Matches the pseudocode exactly.
//  * kAvailabilityAware (default) — same structure, but a site's candidate
//    machine list is re-ranked by earliest *finish* given current machine
//    occupancy and per-edge data arrival, which is what any list scheduler
//    must do once several tasks land on the same best machine.  This is the
//    behaviour the prototype's "best available resources" phrasing implies.
#pragma once

#include <string>

#include "sched/host_filter.hpp"
#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/schedule_builder.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

/// Graceful degradation under stale monitoring data: with
/// SchedulingPolicy::stale_after set, a host whose last repository sample is
/// older than that has its predicted times multiplied by this penalty.
inline constexpr double kStalePenalty = 1.5;

/// The assignment phase of Fig. 2 (steps 6-7), taking host-selection
/// outputs that were already collected — locally by sched::plan(), or over
/// the fabric by the distributed runtime (real AFG multicast).  `outputs`
/// must contain one entry per candidate site, local site first.
common::Expected<ResourceAllocationTable> assign_with_outputs(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& options, const std::string& scheduler_name);

}  // namespace vdce::sched
