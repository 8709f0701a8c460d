// Deadline/budget-constrained (DBC) scheduling strategies
// (docs/ECONOMY.md; Buyya/Murshed/Abramson, arXiv cs/0203020).
//
// Two rows of the strategy table (sched/strategy.hpp) turn the economy
// plane's prices (econ::CostModel via SchedulerContext::prices) and the
// policy's deadline/budget constraints into placement decisions:
//
//  * "dbc-cost" — cost-optimisation: minimise quoted spend subject to the
//    deadline.  Rank by upward rank (b-level); for each ready task keep the
//    candidates whose projected finish plus the mean remaining path still
//    meets the deadline, and among those take the cheapest quote (compute
//    price x predicted time + in-edge transfer prices).  When no candidate
//    can meet the deadline, fall back to earliest finish — best effort, the
//    admission controller reports the overrun.
//  * "dbc-time" — time-optimisation: minimise completion time subject to
//    the budget.  Same ranking; a candidate is affordable iff the spend
//    committed so far + its quote + an optimistic floor for the unplaced
//    remainder (each task at its cheapest feasible host, transfers free)
//    stays within budget.  Among affordable candidates take the earliest
//    finish; when none is affordable, take the cheapest — minimising the
//    overrun that the kBudgetExceeded admission gate will then reject.
//
// With no prices in the context or no constraints in the policy there is no
// economic objective, and both strategies delegate to the default VDCE
// assignment phase (assign_with_outputs) under their own policy — placements
// byte-identical to "vdce-level"/"vdce-level-paper" across the whole
// objective x priority grid (tests/test_differential.cpp pins this), so the
// strategies inherit the staleness grid, ExecutionReport attribution, and
// every existing plane for free.
#pragma once

#include <vector>

#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

common::Expected<ResourceAllocationTable> assign_dbc_cost(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

common::Expected<ResourceAllocationTable> assign_dbc_time(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy);

}  // namespace vdce::sched
