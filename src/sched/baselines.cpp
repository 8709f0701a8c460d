#include "sched/baselines.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "sched/schedule_builder.hpp"

namespace vdce::sched {

namespace {

/// Common driver of the topological baselines: tasks in topological order
/// (parents first), `pick` choosing among each sequential task's feasible
/// options.  Priority -(topological position) makes the ready-list driver
/// pop exactly that order: the next task in it is always ready, and it is
/// the lowest-positioned ready task.
template <typename PickFn>
common::Expected<ResourceAllocationTable> run_baseline(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy, const std::string& scheduler_name,
    PickFn&& pick) {
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();
  auto order = graph.topological_order();
  if (!order) return order.error();
  std::vector<double> priority(graph.task_count());
  for (std::size_t i = 0; i < order->size(); ++i) {
    priority[(*order)[i].value()] = -static_cast<double>(i);
  }
  return schedule_list(*view, priority, scheduler_name, pick);
}

/// Shared min-min / max-min batch driver: each step computes, for every
/// ready task, its best (minimum-completion-time) option, then places the
/// task whose best completion is smallest (min-min) or largest (max-min).
/// Ties break toward the lower task id in both flavours.
common::Expected<ResourceAllocationTable> run_batch_heuristic(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy, const std::string& scheduler_name,
    bool prefer_largest) {
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();
  ScheduleBuilder builder(graph, *context.topology);
  const common::HostId staging = view->staging();

  std::vector<afg::TaskId> ready = graph.entry_tasks();
  while (!ready.empty()) {
    struct Choice {
      afg::TaskId task;
      common::SiteId site;
      std::vector<common::HostId> hosts;
      common::SimDuration predicted = 0.0;
      common::SimTime finish = 0.0;
      bool valid = false;
    };
    Choice overall;

    for (afg::TaskId task : ready) {
      const afg::TaskNode& node = graph.task(task);
      Choice best_for_task;
      if (node.props.mode == afg::ComputationMode::kParallel &&
          node.props.num_nodes > 1) {
        auto bid = view->parallel_bid(task);
        if (!bid) return bid.error();
        best_for_task = Choice{task, bid->site, bid->hosts, bid->predicted,
                               builder.earliest_start(task, bid->hosts, staging) +
                                   bid->predicted,
                               true};
      } else {
        const PlanOption* best = nullptr;
        common::SimTime best_finish = 0.0;
        for (const PlanOption& o : view->options(task)) {
          common::SimTime finish =
              builder.earliest_start(task, o.host(), staging) + o.predicted;
          if (best == nullptr || finish < best_finish) {
            best = &o;
            best_finish = finish;
          }
        }
        best_for_task = Choice{task,        best->site,  {best->host()},
                               best->predicted, best_finish, true};
      }
      bool wins;
      if (!overall.valid) {
        wins = true;
      } else if (best_for_task.finish != overall.finish) {
        wins = prefer_largest ? best_for_task.finish > overall.finish
                              : best_for_task.finish < overall.finish;
      } else {
        wins = best_for_task.task < overall.task;
      }
      if (wins) overall = std::move(best_for_task);
    }

    builder.place(overall.task, overall.site, overall.hosts, overall.predicted,
                  staging);
    ready.erase(std::find(ready.begin(), ready.end(), overall.task));
    for (afg::TaskId child : graph.children(overall.task)) {
      bool all_placed = true;
      for (afg::TaskId p : graph.parents(child)) {
        if (!builder.placed(p)) {
          all_placed = false;
          break;
        }
      }
      if (all_placed &&
          std::find(ready.begin(), ready.end(), child) == ready.end()) {
        ready.push_back(child);
      }
    }
  }
  return builder.build(graph.name(), scheduler_name);
}

}  // namespace

common::Expected<ResourceAllocationTable> assign_random(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  common::Rng rng(policy.seed);
  return run_baseline(
      graph, context, outputs, policy, "random",
      [&rng](afg::TaskId, const std::vector<PlanOption>& options,
             const ScheduleBuilder&) -> const PlanOption& {
        return options[rng.pick_index(options.size())];
      });
}

common::Expected<ResourceAllocationTable> assign_round_robin(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  std::size_t cursor = 0;
  return run_baseline(
      graph, context, outputs, policy, "round-robin",
      [&cursor](afg::TaskId, const std::vector<PlanOption>& options,
                const ScheduleBuilder&) -> const PlanOption& {
        // Cycle by a global cursor; options are deterministically ordered,
        // so this spreads consecutive tasks across machines.
        return options[cursor++ % options.size()];
      });
}

common::Expected<ResourceAllocationTable> assign_min_load(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  return run_baseline(
      graph, context, outputs, policy, "min-load",
      [](afg::TaskId, const std::vector<PlanOption>& options,
         const ScheduleBuilder& builder) -> const PlanOption& {
        // Least database-reported load; ties by machine occupancy, then
        // nominal speed descending.  No per-task prediction involved.
        const PlanOption* best = &options.front();
        for (const PlanOption& o : options) {
          double lo = o.record->current_load();
          double lb = best->record->current_load();
          if (lo != lb) {
            if (lo < lb) best = &o;
            continue;
          }
          auto fo = builder.host_free(o.host());
          auto fb = builder.host_free(best->host());
          if (fo != fb) {
            if (fo < fb) best = &o;
            continue;
          }
          if (o.record->speed_mflops > best->record->speed_mflops) {
            best = &o;
          }
        }
        return *best;
      });
}

common::Expected<ResourceAllocationTable> assign_min_min(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  // The batch heuristics need their own driver: they reorder the ready set
  // each step.
  return run_batch_heuristic(graph, context, outputs, policy, "min-min",
                             /*prefer_largest=*/false);
}

common::Expected<ResourceAllocationTable> assign_max_min(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  return run_batch_heuristic(graph, context, outputs, policy, "max-min",
                             /*prefer_largest=*/true);
}

}  // namespace vdce::sched
