#include "sched/dbc.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "afg/levels.hpp"
#include "econ/econ.hpp"
#include "sched/schedule_builder.hpp"
#include "sched/site_scheduler.hpp"

namespace vdce::sched {

namespace {

/// One feasible (site, machine, predicted) option for a sequential task.
struct Option {
  common::SiteId site;
  common::HostId host;
  double speed_mflops = 0.0;
  common::SimDuration predicted = 0.0;
};

/// Per-task feasible options plus the mean-cost model the rank computation
/// shares with the list variants, extended with the cheapest single-host
/// compute quote per task (the optimistic floor dbc-time budgets against).
struct Precomputed {
  std::vector<db::TaskPerfRecord> perf;
  std::vector<std::vector<Option>> options;  ///< by task id
  std::vector<double> mean_exec;             ///< by task id
  std::vector<double> min_quote;             ///< by task id; cheapest compute
  net::LinkSpec lan;
  net::LinkSpec wan;

  [[nodiscard]] double edge_time(const afg::Afg& graph,
                                 const afg::Edge& e) const {
    double bytes = graph.edge_bytes(e);
    return 0.5 * (lan.transfer_time(bytes) + wan.transfer_time(bytes));
  }
};

common::Expected<Precomputed> precompute(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<common::SiteId>& sites, const econ::CostModel& prices) {
  Precomputed pre;
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  pre.perf.resize(graph.task_count());
  pre.options.resize(graph.task_count());
  pre.mean_exec.resize(graph.task_count(), 0.0);
  pre.min_quote.resize(graph.task_count(), 0.0);
  // One host-pool snapshot per candidate site, ranked by reference for
  // every task: rank_hosts orders exactly as feasible_hosts does, without
  // copying a ResourceRecord per (task, site) pair and option.
  std::vector<std::vector<db::ResourceRecord>> pools;
  pools.reserve(sites.size());
  for (common::SiteId s : sites) {
    pools.push_back(context.repo(s).resources().available_hosts(s));
  }
  for (const afg::TaskNode& node : graph.tasks()) {
    auto record = resolve_perf(node, local_repo.tasks());
    if (!record) return record.error();
    pre.perf[node.id.value()] = *record;
    for (std::size_t k = 0; k < sites.size(); ++k) {
      const std::vector<db::ResourceRecord>& pool = pools[k];
      for (const RankedRef& r : HostSelectionAlgorithm::rank_hosts(
               node, pre.perf[node.id.value()], pool, context.repo(sites[k]),
               *context.predictor)) {
        const db::ResourceRecord& rec = pool[r.index];
        pre.options[node.id.value()].push_back(
            Option{sites[k], rec.host, rec.speed_mflops, r.predicted});
      }
    }
    if (pre.options[node.id.value()].empty()) {
      return common::Error{common::ErrorCode::kNoFeasibleResource,
                           "no feasible machine for " + node.instance_name};
    }
    double acc = 0.0;
    double cheapest = 0.0;
    bool have = false;
    for (const Option& o : pre.options[node.id.value()]) {
      acc += o.predicted;
      const double quote =
          prices.cpu_price(o.speed_mflops) * o.predicted;
      if (!have || quote < cheapest) {
        have = true;
        cheapest = quote;
      }
    }
    pre.mean_exec[node.id.value()] =
        acc / static_cast<double>(pre.options[node.id.value()].size());
    // A parallel group costs at least num_nodes single-host quotes, so the
    // single-host minimum stays a valid lower bound for every node kind.
    pre.min_quote[node.id.value()] = cheapest;
  }
  pre.lan = context.topology->site(context.local_site).lan;
  pre.wan = context.topology->default_wan();
  return pre;
}

/// Fig. 3 group rule at the cheapest bidding site (by time, as every other
/// strategy places groups — the DBC refinements below only arbitrate the
/// sequential options).
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

enum class Mode { kCost, kTime };

/// The constrained list scheduler shared by both modes.
common::Expected<ResourceAllocationTable> schedule_constrained(
    const afg::Afg& graph, const SchedulerContext& context,
    const SchedulingPolicy& policy, Mode mode,
    const std::string& scheduler_name) {
  assert(context.topology != nullptr && context.predictor != nullptr);
  assert(context.prices != nullptr);
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  const econ::CostModel& prices = *context.prices;
  const auto sites = candidate_site_set(context, policy);
  auto pre = precompute(graph, context, sites, prices);
  if (!pre) return pre.error();

  // Upward rank (b-level): mean execution plus mean edge time down to an
  // exit node.  rank - mean_exec estimates the path *after* a task
  // finishes, which is what the deadline check needs.
  auto ranks = afg::compute_levels_with_comm(
      graph,
      [&](const afg::TaskNode& node) { return pre->mean_exec[node.id.value()]; },
      [&](const afg::Edge& e) { return pre->edge_time(graph, e); });
  if (!ranks) return ranks.error();

  ScheduleBuilder builder(graph, *context.topology);
  const common::HostId staging =
      context.topology->site(context.local_site).server;

  ReadyQueue ready;
  std::vector<std::size_t> waiting(graph.task_count(), 0);
  for (const afg::TaskNode& t : graph.tasks()) {
    waiting[t.id.value()] = graph.parents(t.id).size();
  }
  for (afg::TaskId t : graph.entry_tasks()) {
    ready.push(t, ranks->level[t.value()]);
  }

  // Budget bookkeeping: quotes committed so far plus the optimistic floor
  // for everything not yet placed.
  double committed = 0.0;
  double floor_rest = 0.0;
  for (double q : pre->min_quote) floor_rest += q;
  // Final placements by task id, for in-edge transfer pricing.
  std::vector<common::HostId> primary(graph.task_count());
  std::vector<common::SiteId> placed_site(graph.task_count());

  // Quote for running `task` on `host` (one of the group) — in-edge
  // transfers are priced once, against the primary host.
  auto transfer_quote = [&](afg::TaskId task, common::HostId host,
                            common::SiteId site) {
    double q = 0.0;
    for (const afg::Edge& e : graph.in_edges(task)) {
      q += prices.transfer_cost(graph.edge_bytes(e),
                                primary[e.from.value()] == host,
                                placed_site[e.from.value()] == site);
    }
    return q;
  };

  std::size_t placed = 0;
  while (!ready.empty()) {
    const afg::TaskId task = ready.pop();
    const afg::TaskNode& node = graph.task(task);
    double charge = 0.0;

    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes > 1) {
      auto bid = parallel_bid(node, pre->perf[task.value()], sites, context);
      if (!bid) return bid.error();
      builder.place(task, bid->site, bid->hosts, bid->predicted, staging);
      primary[task.value()] = bid->hosts.front();
      placed_site[task.value()] = bid->site;
      const db::SiteRepository& repo = context.repo(bid->site);
      for (common::HostId h : bid->hosts) {
        const db::ResourceRecord* rec = repo.resources().record(h);
        const double speed = rec != nullptr ? rec->speed_mflops : 100.0;
        charge += prices.cpu_price(speed) * bid->predicted;
      }
      charge += transfer_quote(task, bid->hosts.front(), bid->site);
    } else {
      const std::vector<Option>& options = pre->options[task.value()];
      const double tail =
          std::max(0.0, ranks->level[task.value()] - pre->mean_exec[task.value()]);
      const Option* best = nullptr;
      double best_finish = 0.0;
      double best_quote = 0.0;
      bool best_ok = false;  ///< best satisfies the binding constraint
      for (const Option& o : options) {
        const double finish =
            builder.earliest_start(task, o.host, staging) + o.predicted;
        const double quote =
            prices.cpu_price(o.speed_mflops) * o.predicted +
            transfer_quote(task, o.host, o.site);
        bool ok = true;
        bool better = false;
        if (mode == Mode::kCost) {
          // Deadline-feasible iff this finish leaves the mean remaining
          // path enough room; among feasible, cheapest quote wins.
          ok = policy.deadline <= 0.0 || finish + tail <= policy.deadline;
          if (ok == best_ok) {
            better = ok ? (quote < best_quote ||
                           (quote == best_quote && finish < best_finish))
                        : finish < best_finish;
          } else {
            better = ok;
          }
        } else {
          // Budget-affordable iff the committed quotes, this quote, and the
          // optimistic floor for the rest still fit; among affordable,
          // earliest finish wins.
          ok = policy.budget <= 0.0 ||
               committed + quote +
                       (floor_rest - pre->min_quote[task.value()]) <=
                   policy.budget;
          if (ok == best_ok) {
            better = ok ? (finish < best_finish ||
                           (finish == best_finish && quote < best_quote))
                        : (quote < best_quote ||
                           (quote == best_quote && finish < best_finish));
          } else {
            better = ok;
          }
        }
        if (best == nullptr || better) {
          best = &o;
          best_finish = finish;
          best_quote = quote;
          best_ok = ok;
        }
      }
      builder.place(task, best->site, {best->host}, best->predicted, staging);
      primary[task.value()] = best->host;
      placed_site[task.value()] = best->site;
      charge = best_quote;
    }

    committed += charge;
    floor_rest -= pre->min_quote[task.value()];
    ++placed;
    for (afg::TaskId child : graph.children(task)) {
      if (--waiting[child.value()] == 0) {
        ready.push(child, ranks->level[child.value()]);
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

/// Both rows: with no prices or no constraints there is no economic
/// objective, so the placement is exactly the default time-optimising
/// assignment phase under this policy — byte-identical to vdce-level/
/// vdce-level-paper (tests/test_differential.cpp), only the attribution
/// name differs.
common::Expected<ResourceAllocationTable> assign_dbc(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& outputs,
    const SchedulingPolicy& policy, Mode mode) {
  const std::string name = mode == Mode::kCost ? "dbc-cost" : "dbc-time";
  const bool economic = context.prices != nullptr &&
                        (policy.deadline > 0.0 || policy.budget > 0.0);
  if (!economic) {
    return assign_with_outputs(graph, context, outputs, policy, name);
  }
  return schedule_constrained(graph, context, policy, mode, name);
}

}  // namespace

common::Expected<ResourceAllocationTable> assign_dbc_cost(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& outputs,
    const SchedulingPolicy& policy) {
  return assign_dbc(graph, context, outputs, policy, Mode::kCost);
}

common::Expected<ResourceAllocationTable> assign_dbc_time(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& outputs,
    const SchedulingPolicy& policy) {
  return assign_dbc(graph, context, outputs, policy, Mode::kTime);
}

}  // namespace vdce::sched
