#include "sched/baselines.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"
#include "sched/site_scheduler.hpp"

namespace vdce::sched {

namespace {

/// All feasible (site, machine, predicted) options for a sequential task
/// across the candidate sites, in deterministic order.
struct Option {
  common::SiteId site;
  RankedHost host;
};

common::Expected<std::vector<Option>> sequential_options(
    const afg::TaskNode& node, const db::TaskPerfRecord& perf,
    const std::vector<common::SiteId>& sites, const SchedulerContext& context) {
  std::vector<Option> out;
  for (common::SiteId s : sites) {
    for (RankedHost& rh : HostSelectionAlgorithm::feasible_hosts(
             node, perf, s, context.repo(s), *context.predictor)) {
      out.push_back(Option{s, std::move(rh)});
    }
  }
  if (out.empty()) {
    return common::Error{common::ErrorCode::kNoFeasibleResource,
                         "no feasible machine for " + node.instance_name};
  }
  return out;
}

/// Parallel tasks are placed via the Fig. 3 group rule at the cheapest
/// bidding site regardless of baseline flavour — the baselines differ in
/// their *sequential* placement policy, which dominates the comparison.
common::Expected<HostBid> parallel_bid(const afg::TaskNode& node,
                                       const db::TaskPerfRecord& perf,
                                       const std::vector<common::SiteId>& sites,
                                       const SchedulerContext& context) {
  common::Expected<HostBid> best =
      common::Error{common::ErrorCode::kNoFeasibleResource,
                    "no site can host parallel task " + node.instance_name};
  for (common::SiteId s : sites) {
    auto bid = HostSelectionAlgorithm::best_bid(node, perf, s, context.repo(s),
                                                *context.predictor);
    if (bid && (!best || bid->predicted < best->predicted)) best = bid;
  }
  return best;
}

/// Common driver: walk tasks in topological order, let `pick` choose among
/// the feasible sequential options, and book everything through
/// ScheduleBuilder.
template <typename PickFn>
common::Expected<ResourceAllocationTable> run_baseline(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::string& scheduler_name, PickFn&& pick) {
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  auto order = graph.topological_order();
  if (!order) return order.error();

  // Local plus the k nearest — the same universe the VDCE scheduler sees
  // under the global access domain, so comparisons are apples-to-apples.
  const auto sites = candidate_site_set(context, {});
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  ScheduleBuilder builder(graph, *context.topology);
  const common::HostId staging = context.topology->site(context.local_site).server;

  for (afg::TaskId task : *order) {
    const afg::TaskNode& node = graph.task(task);
    auto perf = resolve_perf(node, local_repo.tasks());
    if (!perf) return perf.error();

    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes > 1) {
      auto bid = parallel_bid(node, *perf, sites, context);
      if (!bid) return bid.error();
      builder.place(task, bid->site, bid->hosts, bid->predicted, staging);
      continue;
    }

    auto options = sequential_options(node, *perf, sites, context);
    if (!options) return options.error();
    const Option& chosen = pick(task, *options, builder);
    builder.place(task, chosen.site, {chosen.host.record.host},
                  chosen.host.predicted, staging);
  }
  return builder.build(graph.name(), scheduler_name);
}

/// Shared min-min / max-min batch driver: each step computes, for every
/// ready task, its best (minimum-completion-time) option, then places the
/// task whose best completion is smallest (min-min) or largest (max-min).
/// Ties break toward the lower task id in both flavours.
common::Expected<ResourceAllocationTable> run_batch_heuristic(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::string& scheduler_name, bool prefer_largest) {
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();

  const auto sites = candidate_site_set(context, {});
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  ScheduleBuilder builder(graph, *context.topology);
  const common::HostId staging = context.topology->site(context.local_site).server;

  std::vector<afg::TaskId> ready = graph.entry_tasks();
  std::size_t placed = 0;

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
      auto perf = resolve_perf(node, local_repo.tasks());
      if (!perf) return perf.error();

      Choice best_for_task;
      if (node.props.mode == afg::ComputationMode::kParallel &&
          node.props.num_nodes > 1) {
        auto bid = parallel_bid(node, *perf, sites, context);
        if (!bid) return bid.error();
        best_for_task = Choice{task, bid->site, bid->hosts, bid->predicted,
                               builder.earliest_start(task, bid->hosts, staging) +
                                   bid->predicted,
                               true};
      } else {
        auto options = sequential_options(node, *perf, sites, context);
        if (!options) return options.error();
        for (const Option& o : *options) {
          std::vector<common::HostId> hs{o.host.record.host};
          common::SimTime finish =
              builder.earliest_start(task, hs, staging) + o.host.predicted;
          if (!best_for_task.valid || finish < best_for_task.finish) {
            best_for_task =
                Choice{task, o.site, hs, o.host.predicted, finish, true};
          }
        }
      }
      assert(best_for_task.valid);
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
    ++placed;
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

  if (placed != graph.task_count()) {
    return common::Error{common::ErrorCode::kInternal,
                         scheduler_name + " placed " + std::to_string(placed) +
                             " of " + std::to_string(graph.task_count()) +
                             " tasks"};
  }
  return builder.build(graph.name(), scheduler_name);
}

}  // namespace

common::Expected<ResourceAllocationTable> assign_random(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& policy) {
  common::Rng rng(policy.seed);
  return run_baseline(
      graph, context, "random",
      [&rng](afg::TaskId, const std::vector<Option>& options,
             const ScheduleBuilder&) -> const Option& {
        return options[rng.pick_index(options.size())];
      });
}

common::Expected<ResourceAllocationTable> assign_round_robin(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& /*policy*/) {
  std::size_t cursor = 0;
  return run_baseline(
      graph, context, "round-robin",
      [&cursor](afg::TaskId, const std::vector<Option>& options,
                const ScheduleBuilder&) -> const Option& {
        // Cycle by a global cursor; options are deterministically ordered,
        // so this spreads consecutive tasks across machines.
        return options[cursor++ % options.size()];
      });
}

common::Expected<ResourceAllocationTable> assign_min_load(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& /*policy*/) {
  return run_baseline(
      graph, context, "min-load",
      [](afg::TaskId, const std::vector<Option>& options,
         const ScheduleBuilder& builder) -> const Option& {
        // Least database-reported load; ties by machine occupancy, then
        // nominal speed descending.  No per-task prediction involved.
        const Option* best = &options.front();
        for (const Option& o : options) {
          double lo = o.host.record.current_load();
          double lb = best->host.record.current_load();
          if (lo != lb) {
            if (lo < lb) best = &o;
            continue;
          }
          auto fo = builder.host_free(o.host.record.host);
          auto fb = builder.host_free(best->host.record.host);
          if (fo != fb) {
            if (fo < fb) best = &o;
            continue;
          }
          if (o.host.record.speed_mflops > best->host.record.speed_mflops) {
            best = &o;
          }
        }
        return *best;
      });
}

common::Expected<ResourceAllocationTable> assign_min_min(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& /*policy*/) {
  // The batch heuristics need their own driver: they reorder the ready set
  // each step.
  return run_batch_heuristic(graph, context, "min-min",
                             /*prefer_largest=*/false);
}

common::Expected<ResourceAllocationTable> assign_max_min(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& /*policy*/) {
  return run_batch_heuristic(graph, context, "max-min",
                             /*prefer_largest=*/true);
}

}  // namespace vdce::sched
