#include "sched/dbc.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "econ/econ.hpp"
#include "sched/schedule_builder.hpp"
#include "sched/site_scheduler.hpp"

namespace vdce::sched {

namespace {

enum class Mode { kCost, kTime };

/// The constrained list scheduler shared by both modes.
common::Expected<ResourceAllocationTable> schedule_constrained(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy, Mode mode,
    const std::string& scheduler_name) {
  assert(context.prices != nullptr);
  const econ::CostModel& prices = *context.prices;
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();

  // The cheapest single-host compute quote per task: the optimistic floor
  // dbc-time budgets against.  A parallel group costs at least num_nodes
  // single-host quotes, so it stays a valid lower bound for every node kind.
  std::vector<double> min_quote(graph.task_count(), 0.0);
  for (const afg::TaskNode& node : graph.tasks()) {
    bool have = false;
    for (const PlanOption& o : view->options(node.id)) {
      const double quote = prices.cpu_price(o.record->speed_mflops) * o.predicted;
      if (!have || quote < min_quote[node.id.value()]) {
        have = true;
        min_quote[node.id.value()] = quote;
      }
    }
  }

  // Upward rank (b-level): rank - mean_exec estimates the path *after* a
  // task finishes, which is what the deadline check needs.
  auto ranks = view->upward_ranks();
  if (!ranks) return ranks.error();

  ScheduleBuilder builder(graph, *context.topology);
  const common::HostId staging = view->staging();

  // Budget bookkeeping: quotes committed so far plus the optimistic floor
  // for everything not yet placed.
  double committed = 0.0;
  double floor_rest = 0.0;
  for (double q : min_quote) floor_rest += q;
  // Final placements by task id, for in-edge transfer pricing.
  std::vector<common::HostId> primary(graph.task_count());
  std::vector<common::SiteId> placed_site(graph.task_count());

  // Quote for running `task` on `host` (one of the group) — in-edge
  // transfers are priced once, against the primary host.
  auto transfer_quote = [&](afg::TaskId task, common::HostId host,
                            common::SiteId site) {
    double q = 0.0;
    for (std::uint32_t idx : graph.in_edge_ids(task)) {
      const afg::Edge& e = graph.edge(idx);
      q += prices.transfer_cost(graph.edge_bytes(e),
                                primary[e.from.value()] == host,
                                placed_site[e.from.value()] == site);
    }
    return q;
  };

  auto place = [&](afg::TaskId task) -> common::Status {
    const afg::TaskNode& node = graph.task(task);
    double charge = 0.0;

    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes > 1) {
      // The group rule every row shares, by time: the DBC refinements below
      // only arbitrate the sequential options.
      auto bid = view->parallel_bid(task);
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
      const double tail = std::max(
          0.0, ranks->level[task.value()] - view->mean_exec(task));
      const PlanOption* best = nullptr;
      double best_finish = 0.0;
      double best_quote = 0.0;
      bool best_ok = false;  ///< best satisfies the binding constraint
      for (const PlanOption& o : view->options(task)) {
        const double finish =
            builder.earliest_start(task, o.host(), staging) + o.predicted;
        const double quote =
            prices.cpu_price(o.record->speed_mflops) * o.predicted +
            transfer_quote(task, o.host(), o.site);
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
               committed + quote + (floor_rest - min_quote[task.value()]) <=
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
      builder.place(task, best->site, {best->host()}, best->predicted,
                    staging);
      primary[task.value()] = best->host();
      placed_site[task.value()] = best->site;
      charge = best_quote;
    }

    committed += charge;
    floor_rest -= min_quote[task.value()];
    return {};
  };
  if (auto st = run_ready_list(graph, ranks->level, place); !st.ok()) {
    return st.error();
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
    GatheredOutputs outputs,
    const SchedulingPolicy& policy, Mode mode) {
  const std::string name = mode == Mode::kCost ? "dbc-cost" : "dbc-time";
  const bool economic = context.prices != nullptr &&
                        (policy.deadline > 0.0 || policy.budget > 0.0);
  if (!economic) {
    return assign_with_outputs(graph, context, outputs, policy, name);
  }
  return schedule_constrained(graph, context, outputs, policy, mode, name);
}

}  // namespace

common::Expected<ResourceAllocationTable> assign_dbc_cost(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  return assign_dbc(graph, context, outputs, policy, Mode::kCost);
}

common::Expected<ResourceAllocationTable> assign_dbc_time(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  return assign_dbc(graph, context, outputs, policy, Mode::kTime);
}

}  // namespace vdce::sched
