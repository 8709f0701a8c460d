// HEFT-style comparator scheduler.
//
// The paper's level priority uses computation costs only (§3); the
// literature it draws on (Kwok/Ahmad's dynamic critical path et al.)
// evolved into HEFT (Topcuoglu — the same first author — Hariri & Wu,
// 2002): upward rank including *communication* costs, plus insertion-based
// earliest-finish-time placement.  Implementing it here gives the ablation
// the E1 bench needs: how much of VDCE's gap to the achievable optimum is
// the computation-only level, and how much is the no-insertion placement.
//
// Rank:  rank(t) = w(t) + max over children (c(t,child) + rank(child)),
// with w(t) the mean predicted execution time over all feasible machines
// and c(e) the mean transfer time of the edge over representative links.
// Placement: for each task in rank order, choose the (machine, slot) with
// the earliest finish time, allowing insertion into idle gaps between
// already-scheduled tasks on a machine.
#pragma once

#include <vector>

#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

/// The "heft" row of the strategy table (sched/strategy.hpp).  It plans
/// from the gathered outputs (PlannerView) and ignores every policy knob
/// except the access domain, which clips the sites asked to bid.
common::Expected<ResourceAllocationTable> assign_heft(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

}  // namespace vdce::sched
