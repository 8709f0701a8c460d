#include "sched/reference.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "afg/levels.hpp"

namespace vdce::sched::reference {

namespace {

/// The pre-optimization feasible_hosts: fetches (copies) the site's
/// available-host records and re-runs every prediction on each call —
/// exactly what the cached ranked lists in HostSelectionOutput eliminate.
std::vector<RankedHost> feasible_hosts_naive(
    const afg::TaskNode& node, const db::TaskPerfRecord& perf,
    common::SiteId site, const db::SiteRepository& repo,
    const predict::Predictor& predictor) {
  std::vector<RankedHost> out;
  const bool constrained = !repo.constraints().hosts_for(node.task_name).empty();
  for (const db::ResourceRecord& rec : repo.resources().available_hosts(site)) {
    if (!node.props.preferred_machine.empty() &&
        rec.host_name != node.props.preferred_machine) {
      continue;
    }
    if (!node.props.preferred_machine_type.empty() &&
        rec.machine_type != node.props.preferred_machine_type) {
      continue;
    }
    if (constrained &&
        !repo.constraints().runnable_on(node.task_name, rec.host)) {
      continue;
    }
    auto predicted = predictor.predict(perf, rec, &repo.tasks());
    if (!predicted) continue;  // infeasible (memory) on this machine
    out.push_back(RankedHost{rec, *predicted});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedHost& a, const RankedHost& b) {
              if (a.predicted != b.predicted) return a.predicted < b.predicted;
              return a.record.host < b.record.host;
            });
  return out;
}

/// The pre-optimization best_bid / run pair: one feasible_hosts pass per
/// (task, site) with nothing retained across tasks.
common::Expected<HostBid> best_bid_naive(const afg::TaskNode& node,
                                         const db::TaskPerfRecord& perf,
                                         common::SiteId site,
                                         const db::SiteRepository& repo,
                                         const predict::Predictor& predictor) {
  auto ranked = feasible_hosts_naive(node, perf, site, repo, predictor);
  const auto nodes_needed =
      node.props.mode == afg::ComputationMode::kParallel
          ? static_cast<std::size_t>(node.props.num_nodes)
          : std::size_t{1};
  if (ranked.size() < nodes_needed) {
    return common::Error{common::ErrorCode::kNoFeasibleResource,
                         "site " + std::to_string(site.value()) + " has " +
                             std::to_string(ranked.size()) +
                             " feasible hosts for " + node.instance_name +
                             ", needs " + std::to_string(nodes_needed)};
  }
  HostBid bid;
  bid.site = site;
  if (nodes_needed == 1) {
    bid.hosts.push_back(ranked.front().record.host);
    bid.predicted = ranked.front().predicted;
    return bid;
  }
  std::vector<const db::ResourceRecord*> group;
  for (std::size_t i = 0; i < nodes_needed; ++i) {
    group.push_back(&ranked[i].record);
    bid.hosts.push_back(ranked[i].record.host);
  }
  auto predicted = predictor.predict(perf, group, &repo.tasks());
  if (!predicted) return predicted.error();
  bid.predicted = *predicted;
  return bid;
}

common::Expected<HostSelectionOutput> run_naive(
    const afg::Afg& graph, common::SiteId site, const db::SiteRepository& repo,
    const predict::Predictor& predictor) {
  HostSelectionOutput output;
  output.site = site;  // leaves the rankings empty: no cache in this era
  output.bids.resize(graph.task_count());
  for (const afg::TaskNode& node : graph.tasks()) {
    auto perf = resolve_perf(node, repo.tasks());
    if (!perf) return perf.error();
    auto bid = best_bid_naive(node, *perf, site, repo, predictor);
    if (bid) output.set_bid(node.id, bid->predicted, bid->hosts);
    // No feasible machine here: this site simply does not bid for the task.
  }
  return output;
}

/// The pre-optimization ScheduleBuilder: hash-map bookkeeping and full
/// edge-list scans on every data-ready query.  Deliberately naive — see the
/// header comment.
class NaiveBuilder {
 public:
  NaiveBuilder(const afg::Afg& graph, const net::Topology& topology)
      : graph_(graph), topology_(topology) {}

  [[nodiscard]] common::SimTime data_ready(afg::TaskId task,
                                           common::HostId candidate,
                                           common::HostId staging_from) const {
    common::SimTime ready = 0.0;
    for (const afg::Edge& e : graph_.edges()) {
      if (e.to != task) continue;
      const Assignment& parent = assignments_.at(e.from);
      double bytes = graph_.edge_bytes(e);
      ready = std::max(ready,
                       parent.est_finish + topology_.transfer_time(
                                               parent.primary_host(), candidate,
                                               bytes));
    }
    if (staging_from.valid()) {
      for (const afg::FileSpec& f : graph_.task(task).props.inputs) {
        if (!f.dataflow && !f.path.empty()) {
          ready = std::max(ready, topology_.transfer_time(staging_from,
                                                          candidate,
                                                          f.size_bytes));
        }
      }
    }
    return ready;
  }

  [[nodiscard]] common::SimTime host_free(common::HostId host) const {
    auto it = host_free_.find(host);
    return it == host_free_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] common::SimTime earliest_start(
      afg::TaskId task, const std::vector<common::HostId>& hosts,
      common::HostId staging_from) const {
    common::SimTime start = data_ready(task, hosts.front(), staging_from);
    for (common::HostId h : hosts) start = std::max(start, host_free(h));
    return start;
  }

  const Assignment& place(afg::TaskId task, common::SiteId site,
                          std::vector<common::HostId> hosts,
                          common::SimDuration predicted,
                          common::HostId staging_from) {
    Assignment a;
    a.task = task;
    a.site = site;
    a.hosts = std::move(hosts);
    a.predicted_time = predicted;
    a.est_start = earliest_start(task, a.hosts, staging_from);
    a.est_finish = a.est_start + predicted;
    for (common::HostId h : a.hosts) host_free_[h] = a.est_finish;
    makespan_ = std::max(makespan_, a.est_finish);
    return assignments_.emplace(task, std::move(a)).first->second;
  }

  [[nodiscard]] bool placed(afg::TaskId task) const {
    return assignments_.contains(task);
  }

  [[nodiscard]] const Assignment& assignment(afg::TaskId task) const {
    return assignments_.at(task);
  }

  [[nodiscard]] ResourceAllocationTable build(std::string app_name,
                                              std::string scheduler_name) const {
    ResourceAllocationTable table;
    table.app_name = std::move(app_name);
    table.scheduler_name = std::move(scheduler_name);
    table.schedule_length = makespan_;
    table.assignments.reserve(assignments_.size());
    for (const afg::TaskNode& t : graph_.tasks()) {
      auto it = assignments_.find(t.id);
      if (it != assignments_.end()) table.assignments.push_back(it->second);
    }
    return table;
  }

 private:
  const afg::Afg& graph_;
  const net::Topology& topology_;
  std::unordered_map<afg::TaskId, Assignment> assignments_;
  std::unordered_map<common::HostId, common::SimTime> host_free_;
  common::SimDuration makespan_ = 0.0;
};

struct SiteCandidate {
  common::SiteId site;
  std::vector<common::HostId> hosts;
  common::SimDuration predicted = 0.0;
  double objective = 0.0;
  bool valid = false;
};

/// Fig. 2's Time_total, summing edge transfers by a full edge-list scan in
/// edge insertion order (the same order the indexed implementation uses, so
/// floating-point sums agree bit-for-bit).
double paper_objective_naive(const afg::Afg& graph, afg::TaskId task,
                             common::SiteId candidate_site,
                             const NaiveBuilder& builder,
                             const net::Topology& topology, double predicted) {
  double transfer = 0.0;
  for (const afg::Edge& e : graph.edges()) {
    if (e.to != task) continue;
    const Assignment& parent = builder.assignment(e.from);
    transfer += topology.site_transfer_time(parent.site, candidate_site,
                                            graph.edge_bytes(e));
  }
  return transfer + predicted;
}

/// Unique parents of `task`, by full edge-list scan.
std::vector<afg::TaskId> parents_naive(const afg::Afg& graph,
                                       afg::TaskId task) {
  std::vector<afg::TaskId> out;
  for (const afg::Edge& e : graph.edges()) {
    if (e.to == task &&
        std::find(out.begin(), out.end(), e.from) == out.end()) {
      out.push_back(e.from);
    }
  }
  return out;
}

std::vector<afg::TaskId> children_naive(const afg::Afg& graph,
                                        afg::TaskId task) {
  std::vector<afg::TaskId> out;
  for (const afg::Edge& e : graph.edges()) {
    if (e.from == task &&
        std::find(out.begin(), out.end(), e.to) == out.end()) {
      out.push_back(e.to);
    }
  }
  return out;
}

}  // namespace

common::Expected<ResourceAllocationTable> assign_with_outputs_naive(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& options, const std::string& scheduler_name) {
  if (context.topology == nullptr || context.predictor == nullptr) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "scheduler context lacks a topology or predictor"};
  }
  if (outputs.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "no host-selection outputs supplied"};
  }
  if (outputs.front()->site != context.local_site) {
    return common::Error{
        common::ErrorCode::kInvalidArgument,
        "host-selection outputs must lead with the local site"};
  }

  const net::Topology& topology = *context.topology;
  const db::SiteRepository& local_repo = context.repo(context.local_site);

  auto staleness = [&](const db::ResourceRecord& record) {
    if (options.stale_after <= 0.0) return 1.0;
    if (context.now - record.last_sample_time() <= options.stale_after) {
      return 1.0;
    }
    return kStalePenalty;
  };

  common::Error cost_error{common::ErrorCode::kInternal, ""};
  bool cost_failed = false;
  auto cost_fn = [&](const afg::TaskNode& node) {
    auto c = base_cost(node, local_repo.tasks());
    if (!c) {
      cost_failed = true;
      cost_error = c.error();
      return 0.0;
    }
    return *c;
  };
  common::Expected<afg::Levels> levels =
      common::Error{common::ErrorCode::kInternal, "unset"};
  switch (options.priority) {
    case PriorityMode::kPaperLevels:
      levels = afg::compute_levels(graph, cost_fn);
      break;
    case PriorityMode::kCommLevels: {
      net::LinkSpec lan = topology.site(context.local_site).lan;
      net::LinkSpec wan = topology.default_wan();
      levels = afg::compute_levels_with_comm(
          graph, cost_fn, [&](const afg::Edge& e) {
            double bytes = graph.edge_bytes(e);
            return 0.5 * (lan.transfer_time(bytes) + wan.transfer_time(bytes));
          });
      break;
    }
    case PriorityMode::kFifo: {
      afg::Levels fifo;
      fifo.level.assign(graph.task_count(), 0.0);
      levels = fifo;
      break;
    }
  }
  if (cost_failed) return cost_error;
  if (!levels) return levels.error();

  NaiveBuilder builder(graph, topology);
  std::set<afg::TaskId> ready;
  for (afg::TaskId t : graph.entry_tasks()) ready.insert(t);

  const common::HostId staging = topology.site(context.local_site).server;
  std::size_t placed = 0;

  while (!ready.empty()) {
    // Highest level first; ties by id — found by linear scan of the set.
    afg::TaskId task = *ready.begin();
    for (afg::TaskId t : ready) {
      if (levels->of(t) > levels->of(task) ||
          (levels->of(t) == levels->of(task) && t < task)) {
        task = t;
      }
    }
    ready.erase(task);

    const afg::TaskNode& node = graph.task(task);
    auto perf = resolve_perf(node, local_repo.tasks());
    if (!perf) return perf.error();

    const bool no_input_case =
        parents_naive(graph, task).empty() || !graph.requires_input(task);

    SiteCandidate best;
    for (const HostSelectionOutput* output : outputs) {
      const common::SiteId s = output->site;
      const TaskBid* bid = output->bid(task);
      if (bid == nullptr) continue;

      SiteCandidate cand;
      cand.site = s;
      cand.valid = true;

      if (options.objective == SiteObjective::kPaperObjective) {
        const std::span<const common::HostId> bid_hosts = output->hosts(*bid);
        cand.hosts.assign(bid_hosts.begin(), bid_hosts.end());
        cand.predicted = bid->predicted;
        cand.objective =
            no_input_case
                ? cand.predicted
                : paper_objective_naive(graph, task, s, builder, topology,
                                        cand.predicted);
      } else {
        auto ranked =
            feasible_hosts_naive(node, *perf, s, context.repo(s),
                                 *context.predictor);
        const auto need = node.props.mode == afg::ComputationMode::kParallel
                              ? static_cast<std::size_t>(node.props.num_nodes)
                              : std::size_t{1};
        if (ranked.size() < need) continue;

        if (need == 1) {
          bool have = false;
          double best_finish = 0.0;
          for (const RankedHost& rh : ranked) {
            std::vector<common::HostId> hs{rh.record.host};
            const double predicted = rh.predicted * staleness(rh.record);
            double finish =
                builder.earliest_start(task, hs, staging) + predicted;
            if (!have || finish < best_finish) {
              have = true;
              best_finish = finish;
              cand.hosts = hs;
              cand.predicted = predicted;
            }
          }
          cand.objective = best_finish;
        } else {
          std::vector<RankedHost> pool(
              ranked.begin(),
              ranked.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(ranked.size(), 2 * need)));
          std::sort(pool.begin(), pool.end(),
                    [&](const RankedHost& a, const RankedHost& b) {
                      auto fa = builder.host_free(a.record.host);
                      auto fb = builder.host_free(b.record.host);
                      if (fa != fb) return fa < fb;
                      return a.predicted < b.predicted;
                    });
          std::vector<const db::ResourceRecord*> group;
          for (std::size_t i = 0; i < need; ++i) {
            group.push_back(&pool[i].record);
            cand.hosts.push_back(pool[i].record.host);
          }
          auto predicted = context.predictor->predict(*perf, group,
                                                      &context.repo(s).tasks());
          if (!predicted) continue;
          double penalty = 1.0;
          for (const db::ResourceRecord* r : group) {
            penalty = std::max(penalty, staleness(*r));
          }
          cand.predicted = *predicted * penalty;
          cand.objective =
              builder.earliest_start(task, cand.hosts, staging) + cand.predicted;
        }
      }

      if (!best.valid || cand.objective < best.objective ||
          (cand.objective == best.objective && cand.site < best.site)) {
        best = std::move(cand);
      }
    }

    if (!best.valid) {
      return common::Error{common::ErrorCode::kNoFeasibleResource,
                           "no site can run task " + node.instance_name};
    }

    builder.place(task, best.site, best.hosts, best.predicted, staging);
    ++placed;

    for (afg::TaskId child : children_naive(graph, task)) {
      bool all_placed = true;
      for (afg::TaskId p : parents_naive(graph, child)) {
        if (!builder.placed(p)) {
          all_placed = false;
          break;
        }
      }
      if (all_placed && !builder.placed(child)) ready.insert(child);
    }
  }

  if (placed != graph.task_count()) {
    return common::Error{common::ErrorCode::kInternal,
                         "scheduler placed " + std::to_string(placed) + " of " +
                             std::to_string(graph.task_count()) + " tasks"};
  }
  return builder.build(graph.name(), scheduler_name);
}

common::Expected<ResourceAllocationTable> schedule_naive(
    const afg::Afg& graph, const SchedulerContext& context,
    const SchedulingPolicy& options) {
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();

  const auto sites = candidate_site_set(context, options);

  std::vector<HostSelectionOutput> outputs;
  outputs.reserve(sites.size());
  std::vector<const HostSelectionOutput*> gathered;
  for (common::SiteId s : sites) {
    auto out = run_naive(graph, s, context.repo(s), *context.predictor);
    if (!out) return out.error();
    gathered.push_back(&outputs.emplace_back(std::move(*out)));
  }
  const std::string name =
      options.objective == SiteObjective::kPaperObjective
          ? "vdce-level-paper-naive"
          : "vdce-level-naive";
  return assign_with_outputs_naive(graph, context, gathered, options, name);
}

}  // namespace vdce::sched::reference
