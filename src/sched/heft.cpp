#include "sched/heft.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "afg/levels.hpp"
#include "sched/site_scheduler.hpp"

namespace vdce::sched {

namespace {

/// Per-machine schedule with insertion slots.
struct MachineSchedule {
  struct Slot {
    common::SimTime start;
    common::SimTime finish;
  };
  std::vector<Slot> slots;  ///< sorted by start

  /// Earliest start >= ready that fits `duration`, allowing insertion.
  [[nodiscard]] common::SimTime earliest_fit(common::SimTime ready,
                                             common::SimDuration duration) const {
    common::SimTime candidate = ready;
    for (const Slot& slot : slots) {
      if (candidate + duration <= slot.start + 1e-12) return candidate;
      candidate = std::max(candidate, slot.finish);
    }
    return candidate;
  }

  void insert(common::SimTime start, common::SimDuration duration) {
    Slot s{start, start + duration};
    auto it = std::lower_bound(
        slots.begin(), slots.end(), s,
        [](const Slot& a, const Slot& b) { return a.start < b.start; });
    slots.insert(it, s);
  }
};

}  // namespace

common::Expected<ResourceAllocationTable> assign_heft(
    const afg::Afg& graph, const SchedulerContext& context,
    const std::vector<HostSelectionOutput>& /*outputs*/,
    const SchedulingPolicy& /*policy*/) {
  assert(context.topology != nullptr && context.predictor != nullptr);
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();

  const net::Topology& topology = *context.topology;
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  const auto sites = candidate_site_set(context, {});

  // Feasible machines with predictions, per task.
  struct Option {
    common::SiteId site;
    RankedHost host;
  };
  std::vector<std::vector<Option>> options(graph.task_count());
  std::vector<db::TaskPerfRecord> perf(graph.task_count());
  for (const afg::TaskNode& node : graph.tasks()) {
    auto record = resolve_perf(node, local_repo.tasks());
    if (!record) return record.error();
    perf[node.id.value()] = *record;
    for (common::SiteId s : sites) {
      for (RankedHost& rh : HostSelectionAlgorithm::feasible_hosts(
               node, perf[node.id.value()], s, context.repo(s),
               *context.predictor)) {
        options[node.id.value()].push_back(Option{s, std::move(rh)});
      }
    }
    if (options[node.id.value()].empty()) {
      return common::Error{common::ErrorCode::kNoFeasibleResource,
                           "no feasible machine for " + node.instance_name};
    }
  }

  // Mean execution time per task and a representative mean link for edge
  // costs (average of LAN and WAN of the local site's universe).
  auto mean_exec = [&](afg::TaskId t) {
    double acc = 0.0;
    for (const Option& o : options[t.value()]) acc += o.host.predicted;
    return acc / static_cast<double>(options[t.value()].size());
  };
  net::LinkSpec lan = topology.site(context.local_site).lan;
  net::LinkSpec wan = topology.default_wan();
  auto mean_edge_cost = [&](const afg::Edge& e) {
    double bytes = graph.edge_bytes(e);
    return 0.5 * (lan.transfer_time(bytes) + wan.transfer_time(bytes));
  };

  auto ranks = afg::compute_levels_with_comm(
      graph, [&](const afg::TaskNode& node) { return mean_exec(node.id); },
      mean_edge_cost);
  if (!ranks) return ranks.error();

  // Placement in decreasing rank order with insertion-based EFT.  Flat
  // per-host slot lists (indexed by host id) replace the former ordered map.
  std::vector<MachineSchedule> machines(topology.host_count());
  ScheduleBuilder builder(graph, topology);  // for data_ready + final table
  const common::HostId staging = topology.site(context.local_site).server;

  // ScheduleBuilder enforces "parents placed first"; rank order guarantees
  // it (rank of a parent strictly exceeds any child's).
  for (afg::TaskId task : ranks->by_priority()) {
    const afg::TaskNode& node = graph.task(task);
    const auto need = node.props.mode == afg::ComputationMode::kParallel
                          ? static_cast<std::size_t>(node.props.num_nodes)
                          : std::size_t{1};

    if (need > 1) {
      // Parallel groups fall back to the Fig. 3 group rule (HEFT is defined
      // for single-machine tasks); occupancy handled by ScheduleBuilder.
      auto bid = HostSelectionAlgorithm::best_bid(
          node, perf[task.value()], options[task.value()].front().site,
          context.repo(options[task.value()].front().site),
          *context.predictor);
      if (!bid) return bid.error();
      const Assignment& a =
          builder.place(task, bid->site, bid->hosts, bid->predicted, staging);
      for (common::HostId h : a.hosts) {
        machines[h.value()].insert(a.est_start, a.est_finish - a.est_start);
      }
      continue;
    }

    const Option* best = nullptr;
    common::SimTime best_start = 0.0;
    double best_finish = 0.0;
    for (const Option& o : options[task.value()]) {
      common::SimTime ready = builder.data_ready(task, o.host.record.host,
                                                 staging);
      common::SimTime start = machines[o.host.record.host.value()].earliest_fit(
          ready, o.host.predicted);
      double finish = start + o.host.predicted;
      if (best == nullptr || finish < best_finish) {
        best = &o;
        best_start = start;
        best_finish = finish;
      }
    }
    assert(best != nullptr);
    machines[best->host.record.host.value()].insert(best_start,
                                                    best->host.predicted);
    // ScheduleBuilder cannot express insertion (its host_free is a single
    // watermark), so we register the placement manually.
    builder.place_at(task, best->site, {best->host.record.host},
                     best->host.predicted, best_start);
  }

  return builder.build(graph.name(), "heft");
}

}  // namespace vdce::sched
