#include "sched/schedule_builder.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "sched/host_filter.hpp"

namespace vdce::sched {

ScheduleBuilder::ScheduleBuilder(const afg::Afg& graph,
                                 const net::Topology& topology)
    : graph_(graph), topology_(topology) {
  assignments_.resize(graph.task_count());
  task_placed_.assign(graph.task_count(), 0);
  host_free_.assign(topology.host_count(), 0.0);
}

common::SimTime ScheduleBuilder::data_ready(afg::TaskId task,
                                            common::HostId candidate,
                                            common::HostId staging_from) const {
  common::SimTime ready = 0.0;
  for (std::uint32_t idx : graph_.in_edge_ids(task)) {
    const afg::Edge& e = graph_.edge(idx);
    assert(task_placed_[e.from.value()] && "parent must be placed first");
    const Assignment& parent = assignments_[e.from.value()];
    ready = std::max(ready, parent.est_finish +
                                topology_.transfer_time(parent.primary_host(),
                                                        candidate,
                                                        graph_.edge_bytes(e)));
  }
  if (staging_from.valid()) {
    for (const afg::FileSpec& f : graph_.task(task).props.inputs) {
      if (!f.dataflow && !f.path.empty()) {
        ready = std::max(ready, topology_.transfer_time(staging_from, candidate,
                                                        f.size_bytes));
      }
    }
  }
  return ready;
}

common::SimTime ScheduleBuilder::data_ready_floor(
    afg::TaskId task, common::SiteId site, common::HostId staging_from) const {
  // Each term is computed as data_ready computes its own: the same
  // `est_finish + t` addition over the same link spec, so rounding keeps
  // every term at or below its data_ready counterpart.
  common::SimTime floor = 0.0;
  for (std::uint32_t idx : graph_.in_edge_ids(task)) {
    const afg::Edge& e = graph_.edge(idx);
    assert(task_placed_[e.from.value()] && "parent must be placed first");
    const Assignment& parent = assignments_[e.from.value()];
    const common::SiteId from = topology_.host(parent.primary_host()).site;
    floor = std::max(floor, from == site
                                ? parent.est_finish
                                : parent.est_finish +
                                      topology_.site_transfer_time(
                                          from, site, graph_.edge_bytes(e)));
  }
  if (staging_from.valid()) {
    const common::SiteId from = topology_.host(staging_from).site;
    if (from != site) {
      for (const afg::FileSpec& f : graph_.task(task).props.inputs) {
        if (!f.dataflow && !f.path.empty()) {
          floor = std::max(floor, topology_.site_transfer_time(from, site,
                                                               f.size_bytes));
        }
      }
    }
  }
  return floor;
}

common::SimTime ScheduleBuilder::host_free(common::HostId host) const {
  return host.value() < host_free_.size() ? host_free_[host.value()] : 0.0;
}

void ScheduleBuilder::touch_host(common::HostId host) {
  if (host.value() >= host_free_.size()) {
    host_free_.resize(host.value() + 1, 0.0);
  }
}

common::SimTime ScheduleBuilder::earliest_start(
    afg::TaskId task, const std::vector<common::HostId>& hosts,
    common::HostId staging_from) const {
  assert(!hosts.empty());
  common::SimTime start = data_ready(task, hosts.front(), staging_from);
  for (common::HostId h : hosts) start = std::max(start, host_free(h));
  return start;
}

common::SimTime ScheduleBuilder::earliest_start(
    afg::TaskId task, common::HostId host, common::HostId staging_from) const {
  return std::max(data_ready(task, host, staging_from), host_free(host));
}

const Assignment& ScheduleBuilder::place(afg::TaskId task, common::SiteId site,
                                         std::vector<common::HostId> hosts,
                                         common::SimDuration predicted,
                                         common::HostId staging_from) {
  assert(!hosts.empty());
  assert(!placed(task));
  Assignment a;
  a.task = task;
  a.site = site;
  a.hosts = std::move(hosts);
  a.predicted_time = predicted;
  a.est_start = earliest_start(task, a.hosts, staging_from);
  a.est_finish = a.est_start + predicted;
  for (common::HostId h : a.hosts) {
    touch_host(h);
    host_free_[h.value()] = a.est_finish;
  }
  makespan_ = std::max(makespan_, a.est_finish);
  assignments_[task.value()] = std::move(a);
  task_placed_[task.value()] = 1;
  ++placed_count_;
  return assignments_[task.value()];
}

const Assignment& ScheduleBuilder::place_at(afg::TaskId task,
                                            common::SiteId site,
                                            std::vector<common::HostId> hosts,
                                            common::SimDuration predicted,
                                            common::SimTime start) {
  assert(!hosts.empty());
  assert(!placed(task));
  Assignment a;
  a.task = task;
  a.site = site;
  a.hosts = std::move(hosts);
  a.predicted_time = predicted;
  a.est_start = start;
  a.est_finish = start + predicted;
  for (common::HostId h : a.hosts) {
    touch_host(h);
    host_free_[h.value()] = std::max(host_free_[h.value()], a.est_finish);
  }
  makespan_ = std::max(makespan_, a.est_finish);
  assignments_[task.value()] = std::move(a);
  task_placed_[task.value()] = 1;
  ++placed_count_;
  return assignments_[task.value()];
}

bool ScheduleBuilder::placed(afg::TaskId task) const {
  return task.value() < task_placed_.size() &&
         task_placed_[task.value()] != 0;
}

const Assignment& ScheduleBuilder::assignment(afg::TaskId task) const {
  assert(placed(task));
  return assignments_[task.value()];
}

common::Expected<ResourceAllocationTable> ScheduleBuilder::build(
    std::string app_name, std::string scheduler_name) const {
  if (placed_count_ != graph_.task_count()) {
    return common::Error{common::ErrorCode::kInternal,
                         scheduler_name + " placed " +
                             std::to_string(placed_count_) + " of " +
                             std::to_string(graph_.task_count()) + " tasks"};
  }
  ResourceAllocationTable table;
  table.app_name = std::move(app_name);
  table.scheduler_name = std::move(scheduler_name);
  table.schedule_length = makespan_;
  table.assignments.reserve(placed_count_);
  for (const afg::TaskNode& t : graph_.tasks()) {
    if (task_placed_[t.id.value()]) {
      table.assignments.push_back(assignments_[t.id.value()]);
    }
  }
  return table;
}

// ---- PlannerView -----------------------------------------------------------------

common::Expected<PlannerView> PlannerView::make(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  assert(context.topology != nullptr && context.predictor != nullptr);
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();
  if (outputs.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "no host-selection outputs supplied"};
  }
  PlannerView view(graph, context);
  view.kinds_ = outputs.front()->kinds;
  const TaskKinds& kinds = *view.kinds_;
  assert(kinds.of_task.size() == graph.task_count());
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  view.perf_.reserve(kinds.count());
  for (afg::TaskId first : kinds.first) {
    auto record = resolve_perf(graph.task(first), local_repo.tasks());
    if (!record) return record.error();
    view.perf_.push_back(std::move(*record));
  }
  // Each bid's ranking of each kind, in gather order, without the hosts the
  // filter rejects: no row has a finish estimate yet, so pending foreign
  // windows block them (no backfill).  Filtering keeps the (predicted, host
  // id) order.
  HostFilter filter(context, policy);
  view.options_.resize(kinds.count());
  for (const HostSelectionOutput* out : outputs) {
    view.sites_.push_back(out->site);
    for (std::size_t k = 0; k < kinds.count(); ++k) {
      for (const RankedRef& r : out->ranked(kinds.first[k])) {
        const db::ResourceRecord& record = out->host_pool[r.index];
        if (!filter.admits(record.host)) continue;
        view.options_[k].push_back(PlanOption{out->site, &record, r.predicted});
      }
    }
  }
  view.mean_exec_.resize(kinds.count(), 0.0);
  for (std::size_t k = 0; k < kinds.count(); ++k) {
    const std::vector<PlanOption>& options = view.options_[k];
    if (options.empty()) {
      return common::Error{common::ErrorCode::kNoFeasibleResource,
                           "no feasible machine for " +
                               graph.task(kinds.first[k]).instance_name +
                               filter.why_none()};
    }
    double acc = 0.0;
    for (const PlanOption& o : options) acc += o.predicted;
    view.mean_exec_[k] = acc / static_cast<double>(options.size());
  }
  return view;
}

common::HostId PlannerView::staging() const {
  return context_->topology->site(context_->local_site).server;
}

common::Expected<HostBid> PlannerView::bid_at(afg::TaskId task,
                                              common::SiteId site) const {
  const afg::TaskNode& node = graph_->task(task);
  assert(node.props.mode == afg::ComputationMode::kParallel &&
         node.props.num_nodes > 1);
  // This site's options are its feasible machines in rank order.
  std::vector<const db::ResourceRecord*> ranked;
  for (const PlanOption& o : options(task)) {
    if (o.site == site) ranked.push_back(o.record);
  }
  auto predicted = HostSelectionAlgorithm::group_bid(
      node, perf_[kind(task)], site, ranked, context_->repo(site),
      *context_->predictor);
  if (!predicted) return predicted.error();
  HostBid bid{site, {}, *predicted};
  for (std::size_t i = 0; i < static_cast<std::size_t>(node.props.num_nodes);
       ++i) {
    bid.hosts.push_back(ranked[i]->host);
  }
  return bid;
}

common::Expected<HostBid> PlannerView::parallel_bid(afg::TaskId task) const {
  common::Expected<HostBid> best = common::Error{
      common::ErrorCode::kNoFeasibleResource,
      "no site can host parallel task " + graph_->task(task).instance_name};
  for (common::SiteId s : sites_) {
    auto bid = bid_at(task, s);
    if (bid && (!best || bid->predicted < best->predicted)) best = bid;
  }
  return best;
}

common::Expected<afg::Levels> PlannerView::upward_ranks() const {
  return afg::compute_levels_with_comm(
      *graph_,
      [this](const afg::TaskNode& node) { return mean_exec(node.id); },
      [this](const afg::Edge& e) {
        return mean_edge_cost(*graph_, e, *context_);
      });
}

double mean_edge_cost(const afg::Afg& graph, const afg::Edge& e,
                      const SchedulerContext& context) {
  const double bytes = graph.edge_bytes(e);
  return 0.5 *
         (context.topology->site(context.local_site).lan.transfer_time(bytes) +
          context.topology->default_wan().transfer_time(bytes));
}

// ---- the ready-list driver -----------------------------------------------------

namespace {

/// Ready-list priority queue: pops the highest priority, ties broken by
/// lowest task id, at O(log n) per operation.  Each task is pushed once
/// (the driver's unplaced-in-edge counters guarantee that).
class ReadyQueue {
 public:
  void push(afg::TaskId task, double priority) {
    heap_.push(Entry{priority, task});
  }

  /// Pop the highest-priority task.  Pre: !empty().
  afg::TaskId pop() {
    afg::TaskId t = heap_.top().task;
    heap_.pop();
    return t;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  struct Entry {
    double priority;
    afg::TaskId task;
  };
  struct Lower {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.task.value() > b.task.value();
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Lower> heap_;
};

}  // namespace

common::Status run_ready_list(
    const afg::Afg& graph, const std::vector<double>& priority,
    const std::function<common::Status(afg::TaskId)>& place) {
  ReadyQueue ready;
  // Unplaced in-edges per task: a parent joined to a child on two ports
  // counts twice and releases it once, after its last edge.
  std::vector<std::size_t> waiting(graph.task_count(), 0);
  for (const afg::TaskNode& t : graph.tasks()) {
    waiting[t.id.value()] = graph.in_degree(t.id);
    if (waiting[t.id.value()] == 0) ready.push(t.id, priority[t.id.value()]);
  }
  while (!ready.empty()) {
    const afg::TaskId task = ready.pop();
    if (auto st = place(task); !st.ok()) return st;
    for (std::uint32_t idx : graph.out_edge_ids(task)) {
      const afg::TaskId child = graph.edge(idx).to;
      if (--waiting[child.value()] == 0) {
        ready.push(child, priority[child.value()]);
      }
    }
  }
  return {};
}

}  // namespace vdce::sched
