// Schedule bookkeeping shared by every scheduling algorithm.
//
// List scheduling needs, as each task is placed: (a) when its input data
// can be present on a candidate host — parents' finish times plus transfer
// time over the topology for the edge volumes, (b) when the candidate host
// is free — hosts execute one VDCE task at a time (the prototype's model;
// background load is separate and handled by the prediction model), and
// (c) the running makespan.  Centralizing this in ScheduleBuilder makes the
// VDCE scheduler and every baseline produce *comparable* estimated
// schedules: they differ only in their placement decisions.
//
// The same goes for what the rows see and how they walk the graph: every
// offline row reads the gathered bids through one PlannerView (options,
// mean costs, the parallel-group rule) and every list scheduler pops its
// ready list through one driver (run_ready_list), so an offline row is a
// priority plus a pick.
//
// Grid-scale hot path: data_ready() scans the task's in-edges for each
// (task, candidate host) it is asked about.  The site scheduler's bounded
// availability scan calls data_ready_floor() once per (task, site) and
// skips every host whose floor already loses, so most candidates never
// reach data_ready() at all (docs/SCALING.md §2).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "afg/graph.hpp"
#include "afg/levels.hpp"
#include "net/topology.hpp"
#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/support.hpp"
#include "sched/types.hpp"

namespace vdce::sched {

class ScheduleBuilder {
 public:
  ScheduleBuilder(const afg::Afg& graph, const net::Topology& topology);

  /// Earliest time `task`'s inputs can be at `candidate` — max over in-edges
  /// of parent finish + transfer(parent primary host -> candidate, bytes).
  /// Non-dataflow file inputs are charged a staging transfer from the local
  /// site's server if `staging_from` is valid.  Pre: all parents placed.
  [[nodiscard]] common::SimTime data_ready(afg::TaskId task,
                                           common::HostId candidate,
                                           common::HostId staging_from = {}) const;

  /// A lower bound on data_ready(task, h, staging_from) over every host h
  /// of `site`.  Per in-edge: a parent on `site` contributes its finish (a
  /// LAN or loopback transfer only adds to it); a parent elsewhere its
  /// finish plus the site-to-site WAN time, which is exactly what
  /// data_ready charges every host of `site` for that edge.  A remote
  /// `site` also takes the WAN transfer of each staged file input.
  /// Pre: all parents placed.
  [[nodiscard]] common::SimTime data_ready_floor(
      afg::TaskId task, common::SiteId site,
      common::HostId staging_from = {}) const;

  /// When the host finishes its last assigned VDCE task (0 if none).
  [[nodiscard]] common::SimTime host_free(common::HostId host) const;

  /// Earliest start of `task` on `hosts` = max(data_ready on the primary
  /// host, every host's free time).
  [[nodiscard]] common::SimTime earliest_start(
      afg::TaskId task, const std::vector<common::HostId>& hosts,
      common::HostId staging_from = {}) const;

  /// Single-host overload for the hot candidate loop: no vector needed.
  [[nodiscard]] common::SimTime earliest_start(afg::TaskId task,
                                               common::HostId host,
                                               common::HostId staging_from = {}) const;

  /// Commit a placement; records start/finish and occupies the hosts.
  const Assignment& place(afg::TaskId task, common::SiteId site,
                          std::vector<common::HostId> hosts,
                          common::SimDuration predicted,
                          common::HostId staging_from = {});

  /// Commit a placement at an explicit start time (insertion-based
  /// schedulers like HEFT compute their own slot).  `start` must not
  /// precede the task's data-ready time on the primary host; the host
  /// watermark advances to at least the finish time.
  const Assignment& place_at(afg::TaskId task, common::SiteId site,
                             std::vector<common::HostId> hosts,
                             common::SimDuration predicted,
                             common::SimTime start);

  [[nodiscard]] bool placed(afg::TaskId task) const;
  [[nodiscard]] const Assignment& assignment(afg::TaskId task) const;
  [[nodiscard]] common::SimDuration makespan() const noexcept { return makespan_; }

  /// Assemble the final table (assignments in task-id order).  Fails
  /// unless every task of the graph was placed.
  [[nodiscard]] common::Expected<ResourceAllocationTable> build(
      std::string app_name, std::string scheduler_name) const;

 private:
  void touch_host(common::HostId host);

  const afg::Afg& graph_;
  const net::Topology& topology_;
  std::vector<Assignment> assignments_;     ///< by task id
  std::vector<char> task_placed_;           ///< by task id
  std::vector<common::SimTime> host_free_;  ///< by host id
  std::size_t placed_count_ = 0;
  common::SimDuration makespan_ = 0.0;
};

// ---- the offline planners' shared view of the grid -------------------------

/// One feasible option for a sequential task: a machine of a bidding site
/// and its predicted time.  `record` points into that site's gathered
/// HostSelectionOutput::host_pool, so the outputs must outlive the view.
struct PlanOption {
  common::SiteId site;
  const db::ResourceRecord* record = nullptr;
  common::SimDuration predicted = 0.0;

  [[nodiscard]] common::HostId host() const { return record->host; }
};

/// How every offline strategy row sees the grid: the host-selection outputs
/// Fig. 2 gathered, the same information base the VDCE rows assign from.
/// For each task kind (TaskKinds) it keeps every bidding site's Fig. 3
/// ranking (site order, local first, then (predicted, host id)) without the
/// hosts the placement's HostFilter rejects (held by another application,
/// blocked by a committed window), the kind's performance record (resolved
/// at the local repository) and its mean predicted time over those options;
/// a task reads its kind's.  A site that did not bid offers no option.
class PlannerView {
 public:
  /// Validates the graph; fails when `outputs` is empty, a task has no
  /// performance record, or (kNoFeasibleResource, which the environment
  /// defers under contention) no admitted machine at any bidding site.
  static common::Expected<PlannerView> make(
      const afg::Afg& graph, const SchedulerContext& context,
      GatheredOutputs outputs,
      const SchedulingPolicy& policy);

  [[nodiscard]] const afg::Afg& graph() const { return *graph_; }
  [[nodiscard]] const SchedulerContext& context() const { return *context_; }
  [[nodiscard]] const std::vector<PlanOption>& options(afg::TaskId task) const {
    return options_[kind(task)];
  }
  [[nodiscard]] double mean_exec(afg::TaskId task) const {
    return mean_exec_[kind(task)];
  }
  /// The local site's server, which stages non-dataflow file inputs.
  [[nodiscard]] common::HostId staging() const;

  /// The group rule (HostSelectionAlgorithm::group_bid) at one bidding
  /// site, over the task's options there.  Pre: the task is parallel with
  /// num_nodes > 1.
  [[nodiscard]] common::Expected<HostBid> bid_at(afg::TaskId task,
                                                 common::SiteId site) const;
  /// The group rule at the bidding site with the fastest bid (ties: the
  /// earlier site).  Every row places parallel groups this way except
  /// HEFT, which bids at the site of its first option (bid_at).
  [[nodiscard]] common::Expected<HostBid> parallel_bid(afg::TaskId task) const;

  /// Upward rank (b-level): mean execution plus mean_edge_cost down to an
  /// exit node.
  [[nodiscard]] common::Expected<afg::Levels> upward_ranks() const;

 private:
  PlannerView(const afg::Afg& graph, const SchedulerContext& context)
      : graph_(&graph), context_(&context) {}

  [[nodiscard]] std::uint32_t kind(afg::TaskId task) const {
    return kinds_->of_task[task.value()];
  }

  const afg::Afg* graph_;
  const SchedulerContext* context_;
  std::shared_ptr<const TaskKinds> kinds_;        ///< the outputs' kinds
  std::vector<common::SiteId> sites_;             ///< bidding sites, in order
  std::vector<db::TaskPerfRecord> perf_;          ///< by kind
  std::vector<std::vector<PlanOption>> options_;  ///< by kind
  std::vector<double> mean_exec_;                 ///< by kind
};

/// The edge cost a planner can know before placing either end: the mean of
/// the local site's LAN and the default WAN transfer time for the edge's
/// volume.
[[nodiscard]] double mean_edge_cost(const afg::Afg& graph, const afg::Edge& e,
                                    const SchedulerContext& context);

// ---- the ready-list driver -----------------------------------------------------

/// The ready-list driver every list scheduler shares (Fig. 2 steps 6-7): a
/// task becomes ready once all its parents are placed, and the ready task
/// with the highest priority (`priority` is indexed by task id; ties: lowest
/// id) goes to `place` next.  Returns the first error `place` reports.
common::Status run_ready_list(
    const afg::Afg& graph, const std::vector<double>& priority,
    const std::function<common::Status(afg::TaskId)>& place);

/// The list scheduler most offline rows are: tasks in `priority` order,
/// parallel groups by view.parallel_bid, and each sequential task on the
/// option `pick(task, options, builder)` returns.
template <typename PickFn>
common::Expected<ResourceAllocationTable> schedule_list(
    const PlannerView& view, const std::vector<double>& priority,
    const std::string& scheduler_name, PickFn&& pick) {
  const afg::Afg& graph = view.graph();
  ScheduleBuilder builder(graph, *view.context().topology);
  const common::HostId staging = view.staging();
  auto place = [&](afg::TaskId task) -> common::Status {
    const afg::TaskNode& node = graph.task(task);
    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes > 1) {
      auto bid = view.parallel_bid(task);
      if (!bid) return bid.error();
      builder.place(task, bid->site, bid->hosts, bid->predicted, staging);
    } else {
      const PlanOption& chosen = pick(task, view.options(task), builder);
      builder.place(task, chosen.site, {chosen.host()}, chosen.predicted,
                    staging);
    }
    return {};
  };
  if (auto st = run_ready_list(graph, priority, place); !st.ok()) {
    return st.error();
  }
  return builder.build(graph.name(), scheduler_name);
}

}  // namespace vdce::sched
