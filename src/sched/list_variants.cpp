#include "sched/list_variants.hpp"

#include <algorithm>
#include <vector>

#include "sched/schedule_builder.hpp"

namespace vdce::sched {

namespace {

/// Top levels (ALAP companion of the upward rank): t(n) = max over parents
/// p of (t(p) + w(p) + c(p->n)); 0 for entry tasks.  Walked in topological
/// order, so every parent is final before its children read it.
common::Expected<std::vector<double>> top_levels(const PlannerView& view) {
  const afg::Afg& graph = view.graph();
  auto order = graph.topological_order();
  if (!order) return order.error();
  std::vector<double> t(graph.task_count(), 0.0);
  for (afg::TaskId task : *order) {
    for (std::uint32_t idx : graph.in_edge_ids(task)) {
      const afg::Edge& e = graph.edge(idx);
      double via = t[e.from.value()] + view.mean_exec(e.from) +
                   mean_edge_cost(graph, e, view.context());
      t[task.value()] = std::max(t[task.value()], via);
    }
  }
  return t;
}

/// Earliest-finish pick over all feasible machines — the non-insertion
/// placement b-level and t-level share.  Deterministic: the option order is
/// (site order, then (predicted, host id)), and strict less keeps the first
/// of equals.
struct EarliestFinishPick {
  common::HostId staging;
  const PlanOption& operator()(afg::TaskId task,
                               const std::vector<PlanOption>& options,
                               const ScheduleBuilder& b) const {
    const PlanOption* best = &options.front();
    double best_finish = 0.0;
    bool have = false;
    for (const PlanOption& o : options) {
      double finish = b.earliest_start(task, o.host(), staging) + o.predicted;
      if (!have || finish < best_finish) {
        have = true;
        best = &o;
        best_finish = finish;
      }
    }
    return *best;
  }
};

}  // namespace

common::Expected<ResourceAllocationTable> assign_b_level(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();
  // Bottom level == upward rank: higher = more critical = scheduled first.
  auto ranks = view->upward_ranks();
  if (!ranks) return ranks.error();
  return schedule_list(*view, ranks->level, "b-level",
                       EarliestFinishPick{view->staging()});
}

common::Expected<ResourceAllocationTable> assign_t_level(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();
  auto t_levels = top_levels(*view);
  if (!t_levels) return t_levels.error();
  // Smallest top level first (the task that can start earliest): negate so
  // the descending-priority ready list pops ASAP order.
  std::vector<double> priority(t_levels->size());
  for (std::size_t i = 0; i < t_levels->size(); ++i) {
    priority[i] = -(*t_levels)[i];
  }
  return schedule_list(*view, priority, "t-level",
                       EarliestFinishPick{view->staging()});
}

common::Expected<ResourceAllocationTable> assign_work_stealing(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();
  // Rank like b-level (critical tasks are offered to thieves first), but
  // placement is pull-driven: the machine that can *start* the task
  // earliest steals it, whatever its speed — availability wins, prediction
  // only breaks ties.
  auto ranks = view->upward_ranks();
  if (!ranks) return ranks.error();

  const common::HostId staging = view->staging();
  auto steal_pick = [&](afg::TaskId task,
                        const std::vector<PlanOption>& options,
                        const ScheduleBuilder& b) -> const PlanOption& {
    const PlanOption* best = &options.front();
    double best_start = 0.0;
    bool have = false;
    for (const PlanOption& o : options) {
      double start = b.earliest_start(task, o.host(), staging);
      bool better = !have || start < best_start ||
                    (start == best_start && o.predicted < best->predicted);
      if (better) {
        have = true;
        best = &o;
        best_start = start;
      }
    }
    return *best;
  };
  return schedule_list(*view, ranks->level, "work-stealing",
                       steal_pick);
}

}  // namespace vdce::sched
