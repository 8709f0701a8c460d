// Baseline strategies for the evaluation (experiments E1/E2): rows of the
// strategy table (sched/strategy.hpp).
//
// The paper's claim is relative: level-based, prediction-driven list
// scheduling assigns "the most suitable available resources ... to minimize
// the schedule length".  Quantifying that needs comparators; these are the
// standard ones from the literature the paper cites:
//
//  * "random"      — uniformly random feasible machine per task, seeded by
//                    policy.seed.
//  * "round-robin" — cycle through machines regardless of speed/load.
//  * "min-load"    — greedy least-loaded machine (monitoring data but no
//                    per-task prediction): isolates the value of the
//                    prediction model.
//  * "min-min"     — classic min-min batch heuristic over ready tasks: a
//                    strong prediction-driven comparator.
//  * "max-min"     — max-min: same batch sweep, but the ready task whose
//                    best completion time is *largest* goes first,
//                    front-loading long tasks so they overlap the many
//                    short ones.
//
// All baselines read the gathered outputs through the shared PlannerView
// and book through ScheduleBuilder (sched/schedule_builder.hpp), so
// reported schedule lengths are directly comparable.  The first three place
// tasks in topological order (parents first).  The policy's access domain
// clips the sites asked to bid exactly as it does for the VDCE rows, and
// "random" also reads its seed.
#pragma once

#include <vector>

#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

common::Expected<ResourceAllocationTable> assign_random(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_round_robin(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_min_load(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_min_min(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_max_min(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

}  // namespace vdce::sched
