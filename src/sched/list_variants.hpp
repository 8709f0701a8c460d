// List-scheduling variants for the strategy-sensitivity plane
// (docs/SCHEDULING.md; Beránek et al., arXiv 2204.07211).
//
// The VDCE scheduler and HEFT are two points in the classic list-scheduling
// design space (which rank orders the ready list? what does placement
// minimize?).  These variants fill in the neighbouring points so the
// strategy × staleness sensitivity grid (bench_strategies) can show how the
// *family* degrades under imperfect resource information, not just one
// member.  Each is a row of the strategy table (sched/strategy.hpp):
//
//  * "b-level" — rank by bottom level (mean execution + communication to
//    an exit node: HEFT's upward rank), placement by earliest finish over
//    all feasible machines *without* HEFT's insertion — isolates the value
//    of slot insertion.
//  * "t-level" — rank by smallest top level (longest mean path from an
//    entry node, exclusive of the task itself): tasks that can start
//    earliest go first, the ASAP companion to b-level.
//  * "work-stealing" — idle-worker pull: the highest-ranked ready task is
//    stolen by whichever feasible machine can *start* it earliest,
//    regardless of speed.  Models decentralized worker-pull systems where
//    placement is availability-driven and speed-oblivious; the gap to
//    b-level measures what prediction buys.
//
// "max-min" (baselines.hpp) completes the set on the batch side.  Each
// variant is a priority plus a pick over the shared PlannerView of the
// gathered outputs, driven by the shared ready list
// (sched/schedule_builder.hpp), so schedule lengths are directly comparable
// with every other strategy.  The policy only clips the sites asked to bid.
#pragma once

#include <vector>

#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

common::Expected<ResourceAllocationTable> assign_b_level(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_t_level(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_work_stealing(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

}  // namespace vdce::sched
