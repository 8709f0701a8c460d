#include "sched/heft.hpp"

#include <algorithm>
#include <vector>

#include "sched/schedule_builder.hpp"

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
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  auto view = PlannerView::make(graph, context, outputs, policy);
  if (!view) return view.error();
  auto ranks = view->upward_ranks();
  if (!ranks) return ranks.error();

  // Placement in decreasing rank order with insertion-based EFT.  Flat
  // per-host slot lists (indexed by host id) replace the former ordered map.
  const net::Topology& topology = *context.topology;
  std::vector<MachineSchedule> machines(topology.host_count());
  ScheduleBuilder builder(graph, topology);  // for data_ready + final table
  const common::HostId staging = view->staging();

  // ScheduleBuilder enforces "parents placed first"; rank order guarantees
  // it (rank of a parent strictly exceeds any child's).
  for (afg::TaskId task : ranks->by_priority()) {
    const afg::TaskNode& node = graph.task(task);
    const std::vector<PlanOption>& options = view->options(task);

    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes > 1) {
      // Parallel groups fall back to the Fig. 3 group rule (HEFT is defined
      // for single-machine tasks) at the site of the task's first option —
      // HEFT's own rule, not the fastest-bid rule of the other rows;
      // occupancy handled by ScheduleBuilder.
      auto bid = view->bid_at(task, options.front().site);
      if (!bid) return bid.error();
      const Assignment& a =
          builder.place(task, bid->site, bid->hosts, bid->predicted, staging);
      for (common::HostId h : a.hosts) {
        machines[h.value()].insert(a.est_start, a.est_finish - a.est_start);
      }
      continue;
    }

    const PlanOption* best = nullptr;
    common::SimTime best_start = 0.0;
    double best_finish = 0.0;
    for (const PlanOption& o : options) {
      common::SimTime ready = builder.data_ready(task, o.host(), staging);
      common::SimTime start =
          machines[o.host().value()].earliest_fit(ready, o.predicted);
      double finish = start + o.predicted;
      if (best == nullptr || finish < best_finish) {
        best = &o;
        best_start = start;
        best_finish = finish;
      }
    }
    machines[best->host().value()].insert(best_start, best->predicted);
    // ScheduleBuilder cannot express insertion (its host_free is a single
    // watermark), so we register the placement manually.
    builder.place_at(task, best->site, {best->host()}, best->predicted,
                     best_start);
  }

  return builder.build(graph.name(), "heft");
}

}  // namespace vdce::sched
