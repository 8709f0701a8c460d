#include "predict/model.hpp"

#include <algorithm>
#include <cassert>

namespace vdce::predict {

namespace {

/// Per-node synchronization overhead for parallel tasks (seconds).
constexpr common::SimDuration kParallelSyncOverhead = 0.01;
/// Multiplier applied when required memory exceeds available memory
/// (paging); infeasible if required exceeds *total* memory.
constexpr double kPagingPenalty = 4.0;

/// Amdahl time of `task` on `nodes` hosts gated by the slowest effective
/// speed: the serial fraction runs on one node, the parallel fraction is
/// split across all of them, and each node adds a synchronization overhead.
double amdahl_time(const db::TaskPerfRecord& task, double slowest,
                   std::size_t nodes) {
  if (nodes == 1) return task.computation_mflop / slowest;
  const auto n = static_cast<double>(nodes);
  const double pf = std::clamp(task.parallel_fraction, 0.0, 1.0);
  return task.computation_mflop * (1.0 - pf) / slowest +
         task.computation_mflop * pf / (slowest * n) +
         kParallelSyncOverhead * n;
}

}  // namespace

double Predictor::effective_mflops(const db::ResourceRecord& host) {
  // A load of L background-busy CPUs' worth leaves the task 1/(1+L) of the
  // machine under fair scheduling.
  return host.speed_mflops / (1.0 + std::max(0.0, host.current_load()));
}

common::Expected<common::SimDuration> Predictor::predict(
    const db::TaskPerfRecord& task, const db::ResourceRecord& host,
    const db::TaskPerformanceDb* measured_db) const {
  return predict(task, host,
                 measured_db != nullptr
                     ? measured_db->measured_row(task.task_name)
                     : nullptr);
}

common::Expected<common::SimDuration> Predictor::predict(
    const db::TaskPerfRecord& task, const db::ResourceRecord& host,
    const db::MeasuredRow* measured) const {
  // Single-host fast path: same arithmetic as the group overload with n = 1,
  // without materialising a one-element std::vector<ResourceRecord> (a full
  // record copy — five strings plus the workload history) per call.  The
  // scheduler evaluates this once per (task, host) pair, so the copy was the
  // dominant cost of host selection on large grids.
  if (task.required_memory_mb > host.total_memory_mb) {
    return common::Error{
        common::ErrorCode::kNoFeasibleResource,
        task.task_name + " needs " +
            std::to_string(task.required_memory_mb) + "MB; " + host.host_name +
            " has " + std::to_string(host.total_memory_mb) + "MB"};
  }
  if (measured != nullptr) {
    auto it = measured->find(host.host);
    if (it != measured->end() && it->second.count >= kMinMeasurements) {
      return it->second.mean;
    }
  }
  const double slowest = effective_mflops(host);
  if (slowest <= 0.0) {
    return common::Error{common::ErrorCode::kNoFeasibleResource,
                         "host reports non-positive effective speed"};
  }
  double time = task.computation_mflop / slowest;
  if (task.required_memory_mb > host.available_mb()) {
    time *= kPagingPenalty;
  }
  return time;
}

common::Expected<common::SimDuration> Predictor::predict(
    const db::TaskPerfRecord& task,
    std::span<const db::ResourceRecord* const> hosts,
    const db::TaskPerformanceDb* measured_db) const {
  if (hosts.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "predict: no hosts given"};
  }

  // Feasibility: memory must fit in each node's total memory.
  for (const db::ResourceRecord* h : hosts) {
    if (task.required_memory_mb > h->total_memory_mb) {
      return common::Error{
          common::ErrorCode::kNoFeasibleResource,
          task.task_name + " needs " +
              std::to_string(task.required_memory_mb) + "MB; " + h->host_name +
              " has " + std::to_string(h->total_memory_mb) + "MB"};
    }
  }

  // Measured path (sequential placements only: parallel groups vary).
  if (hosts.size() == 1 && measured_db != nullptr) {
    auto m = measured_db->measured(task.task_name, hosts.front()->host);
    if (m && m->count >= kMinMeasurements) return m->mean;
  }

  // Analytic path.  The slowest effective node gates both the serial part
  // (which runs on one node) and the parallel part (bulk-synchronous: the
  // group advances at the pace of its slowest member).
  double slowest = effective_mflops(*hosts.front());
  for (const db::ResourceRecord* h : hosts) {
    slowest = std::min(slowest, effective_mflops(*h));
  }
  if (slowest <= 0.0) {
    return common::Error{common::ErrorCode::kNoFeasibleResource,
                         "host reports non-positive effective speed"};
  }

  double time = amdahl_time(task, slowest, hosts.size());

  // Paging penalty when the task does not fit in *available* memory.
  for (const db::ResourceRecord* h : hosts) {
    if (task.required_memory_mb > h->available_mb()) {
      time *= kPagingPenalty;
      break;
    }
  }
  return time;
}

double GroundTruthModel::rate_mflops(
    const db::TaskPerfRecord& task, const std::vector<common::HostId>& hosts,
    bool exclude_own_share) const {
  assert(!hosts.empty());
  double slowest = 0.0;
  bool first = true;
  double min_avail_mb = 0.0;
  for (common::HostId hid : hosts) {
    const net::Host& h = topology_.host(hid);
    double load = h.state.cpu_load;
    if (exclude_own_share) load = std::max(0.0, load - 1.0);
    double eff = h.spec.speed_mflops / (1.0 + std::max(0.0, load));
    if (first || eff < slowest) slowest = eff;
    if (first || h.state.available_mb < min_avail_mb) {
      min_avail_mb = h.state.available_mb;
    }
    first = false;
  }
  slowest = std::max(slowest, 1e-6);

  double time = amdahl_time(task, slowest, hosts.size());
  if (task.required_memory_mb > min_avail_mb) time *= kPagingPenalty;
  time = std::max(time, 1e-9);
  return std::max(task.computation_mflop, 1e-3) / time;
}

}  // namespace vdce::predict
