#include "sched/list_variants.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "afg/levels.hpp"
#include "sched/schedule_builder.hpp"
#include "sched/site_scheduler.hpp"

namespace vdce::sched {

namespace {

/// One feasible (site, machine, predicted) option for a sequential task.
struct Option {
  common::SiteId site;
  RankedHost host;
};

/// Everything the list variants need precomputed: per-task performance
/// records, feasible options across the candidate sites, and the mean
/// execution / edge-cost model shared with HEFT's rank computation.
struct Precomputed {
  std::vector<db::TaskPerfRecord> perf;
  std::vector<std::vector<Option>> options;  ///< by task id
  std::vector<double> mean_exec;             ///< by task id
  net::LinkSpec lan;
  net::LinkSpec wan;

  [[nodiscard]] double edge_cost(const afg::Afg& graph,
                                 const afg::Edge& e) const {
    double bytes = graph.edge_bytes(e);
    return 0.5 * (lan.transfer_time(bytes) + wan.transfer_time(bytes));
  }
};

common::Expected<Precomputed> precompute(const afg::Afg& graph,
                                         const SchedulerContext& context,
                                         const std::vector<common::SiteId>& sites) {
  Precomputed pre;
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  pre.perf.resize(graph.task_count());
  pre.options.resize(graph.task_count());
  pre.mean_exec.resize(graph.task_count(), 0.0);
  for (const afg::TaskNode& node : graph.tasks()) {
    auto record = resolve_perf(node, local_repo.tasks());
    if (!record) return record.error();
    pre.perf[node.id.value()] = *record;
    for (common::SiteId s : sites) {
      for (RankedHost& rh : HostSelectionAlgorithm::feasible_hosts(
               node, pre.perf[node.id.value()], s, context.repo(s),
               *context.predictor)) {
        pre.options[node.id.value()].push_back(Option{s, std::move(rh)});
      }
    }
    if (pre.options[node.id.value()].empty()) {
      return common::Error{common::ErrorCode::kNoFeasibleResource,
                           "no feasible machine for " + node.instance_name};
    }
    double acc = 0.0;
    for (const Option& o : pre.options[node.id.value()]) {
      acc += o.host.predicted;
    }
    pre.mean_exec[node.id.value()] =
        acc / static_cast<double>(pre.options[node.id.value()].size());
  }
  pre.lan = context.topology->site(context.local_site).lan;
  pre.wan = context.topology->default_wan();
  return pre;
}

/// Fig. 3 group rule at the cheapest bidding site, shared with the
/// baselines: parallel groups are placed as a unit.
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

/// Top levels (ALAP companion of the upward rank): t(n) = max over parents
/// p of (t(p) + w(p) + c(p->n)); 0 for entry tasks.  Walked in topological
/// order, so every parent is final before its children read it.
common::Expected<std::vector<double>> top_levels(const afg::Afg& graph,
                                                 const Precomputed& pre) {
  auto order = graph.topological_order();
  if (!order) return order.error();
  std::vector<double> t(graph.task_count(), 0.0);
  for (afg::TaskId task : *order) {
    for (const afg::Edge& e : graph.in_edges(task)) {
      double via = t[e.from.value()] + pre.mean_exec[e.from.value()] +
                   pre.edge_cost(graph, e);
      t[task.value()] = std::max(t[task.value()], via);
    }
  }
  return t;
}

/// Shared ready-list driver: pop tasks by `priority` (descending, ties by
/// id), let `pick` choose among the feasible sequential options, and book
/// everything through ScheduleBuilder.  Parallel groups take the Fig. 3
/// rule at the cheapest bidding site.
template <typename PickFn>
common::Expected<ResourceAllocationTable> run_list_variant(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<common::SiteId>& sites, const Precomputed& pre,
    const std::vector<double>& priority, const std::string& scheduler_name,
    PickFn&& pick) {
  ScheduleBuilder builder(graph, *context.topology);
  const common::HostId staging =
      context.topology->site(context.local_site).server;

  ReadyQueue ready;
  std::vector<std::size_t> waiting(graph.task_count(), 0);
  for (const afg::TaskNode& t : graph.tasks()) {
    waiting[t.id.value()] = graph.parents(t.id).size();
  }
  for (afg::TaskId t : graph.entry_tasks()) ready.push(t, priority[t.value()]);

  std::size_t placed = 0;
  while (!ready.empty()) {
    afg::TaskId task = ready.pop();
    const afg::TaskNode& node = graph.task(task);

    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes > 1) {
      auto bid = parallel_bid(node, pre.perf[task.value()], sites, context);
      if (!bid) return bid.error();
      builder.place(task, bid->site, bid->hosts, bid->predicted, staging);
    } else {
      const Option& chosen = pick(task, pre.options[task.value()], builder);
      builder.place(task, chosen.site, {chosen.host.record.host},
                    chosen.host.predicted, staging);
    }
    ++placed;
    for (afg::TaskId child : graph.children(task)) {
      if (--waiting[child.value()] == 0) {
        ready.push(child, priority[child.value()]);
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

/// Earliest-finish pick over all feasible machines — the non-insertion
/// placement b-level and t-level share.  Deterministic: the option order is
/// (site order, then (predicted, host id)), and strict less keeps the first
/// of equals.
struct EarliestFinishPick {
  common::HostId staging;
  const Option& operator()(afg::TaskId task, const std::vector<Option>& options,
                           const ScheduleBuilder& b) const {
    const Option* best = &options.front();
    double best_finish = 0.0;
    bool have = false;
    for (const Option& o : options) {
      double finish = b.earliest_start(task, o.host.record.host, staging) +
                      o.host.predicted;
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
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& policy) {
  assert(context.topology != nullptr && context.predictor != nullptr);
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  const auto sites = candidate_site_set(context, policy);
  auto pre = precompute(graph, context, sites);
  if (!pre) return pre.error();

  // Bottom level == upward rank: mean execution plus mean edge cost down to
  // an exit node.  Higher = more critical = scheduled first.
  auto ranks = afg::compute_levels_with_comm(
      graph,
      [&](const afg::TaskNode& node) { return pre->mean_exec[node.id.value()]; },
      [&](const afg::Edge& e) { return pre->edge_cost(graph, e); });
  if (!ranks) return ranks.error();

  const common::HostId staging =
      context.topology->site(context.local_site).server;
  return run_list_variant(graph, context, sites, *pre, ranks->level, "b-level",
                          EarliestFinishPick{staging});
}

common::Expected<ResourceAllocationTable> assign_t_level(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& policy) {
  assert(context.topology != nullptr && context.predictor != nullptr);
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  const auto sites = candidate_site_set(context, policy);
  auto pre = precompute(graph, context, sites);
  if (!pre) return pre.error();

  auto t_levels = top_levels(graph, *pre);
  if (!t_levels) return t_levels.error();
  // Smallest top level first (the task that can start earliest): negate so
  // the shared descending-priority queue pops ASAP order.
  std::vector<double> priority(t_levels->size());
  for (std::size_t i = 0; i < t_levels->size(); ++i) {
    priority[i] = -(*t_levels)[i];
  }

  const common::HostId staging =
      context.topology->site(context.local_site).server;
  return run_list_variant(graph, context, sites, *pre, priority, "t-level",
                          EarliestFinishPick{staging});
}

common::Expected<ResourceAllocationTable> assign_work_stealing(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& policy) {
  assert(context.topology != nullptr && context.predictor != nullptr);
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  const auto sites = candidate_site_set(context, policy);
  auto pre = precompute(graph, context, sites);
  if (!pre) return pre.error();

  // Rank like b-level (critical tasks are offered to thieves first), but
  // placement is pull-driven: the machine that can *start* the task
  // earliest steals it, whatever its speed — availability wins, prediction
  // only breaks ties.
  auto ranks = afg::compute_levels_with_comm(
      graph,
      [&](const afg::TaskNode& node) { return pre->mean_exec[node.id.value()]; },
      [&](const afg::Edge& e) { return pre->edge_cost(graph, e); });
  if (!ranks) return ranks.error();

  const common::HostId staging =
      context.topology->site(context.local_site).server;
  auto steal_pick = [&](afg::TaskId task, const std::vector<Option>& options,
                        const ScheduleBuilder& b) -> const Option& {
    const Option* best = &options.front();
    double best_start = 0.0;
    bool have = false;
    for (const Option& o : options) {
      double start = b.earliest_start(task, o.host.record.host, staging);
      bool better =
          !have || start < best_start ||
          (start == best_start && o.host.predicted < best->host.predicted);
      if (better) {
        have = true;
        best = &o;
        best_start = start;
      }
    }
    return *best;
  };
  return run_list_variant(graph, context, sites, *pre, ranks->level,
                          "work-stealing", steal_pick);
}

}  // namespace vdce::sched
