// Performance prediction — "the core of the given built-in scheduling
// algorithms is the performance prediction phase, which is provided by
// separate function evaluations of each task on each resource" (§3).
//
// The model follows the practical NOW-prediction approach the paper cites
// (Yan & Zhang): a task's time on a non-dedicated host is its work divided
// by the host's *effective* speed, where effective speed is the nominal
// speed degraded by the measured background load; memory pressure adds a
// paging penalty.  Two refinements from the paper's design:
//
//  * Measured history wins: once the task-performance database has recorded
//    executions of this task on this host (the Site Manager writes them
//    after every run, §4.1), the measured mean replaces the analytic
//    estimate — prediction sharpens as the system is used (experiment E3).
//
//  * Parallel tasks (computation mode "parallel", N nodes) follow an
//    Amdahl split: the serial fraction runs at one node's effective speed,
//    the parallel fraction is divided across the N selected nodes, and a
//    per-node synchronization overhead is charged.
//
// Prediction consumes the *database view* of a resource (ResourceRecord),
// never topology ground truth: the scheduler can only be as good as its
// monitoring pipeline, and that gap is measured by benches E3/E4.
#pragma once

#include <span>
#include <vector>

#include "afg/graph.hpp"
#include "common/expected.hpp"
#include "common/time.hpp"
#include "db/resource_perf.hpp"
#include "db/task_perf.hpp"
#include "net/topology.hpp"

namespace vdce::predict {

/// The measured mean is trusted once at least this many runs were recorded.
inline constexpr std::size_t kMinMeasurements = 1;

class Predictor {
 public:
  /// Predict(task_i, R_j) for a sequential placement, or a parallel task on
  /// `nodes` homogeneous-ish hosts (pass the actual records selected, in
  /// group order; the slowest one gates the parallel part).  Fails with
  /// kNoFeasibleResource when the task cannot run there at all (memory
  /// exceeds total).
  common::Expected<common::SimDuration> predict(
      const db::TaskPerfRecord& task,
      std::span<const db::ResourceRecord* const> hosts,
      const db::TaskPerformanceDb* measured_db = nullptr) const;

  /// Single-host convenience overload.
  common::Expected<common::SimDuration> predict(
      const db::TaskPerfRecord& task, const db::ResourceRecord& host,
      const db::TaskPerformanceDb* measured_db = nullptr) const;
  /// Single-host overload given the task's measurement row (null: none
  /// recorded), for callers that predict one task on many hosts and look
  /// the row up once.
  common::Expected<common::SimDuration> predict(
      const db::TaskPerfRecord& task, const db::ResourceRecord& host,
      const db::MeasuredRow* measured) const;

  /// Effective sustainable MFLOPS of a host under its last measured load.
  [[nodiscard]] static double effective_mflops(const db::ResourceRecord& host);
};

/// Ground truth: what an execution *actually* costs on the live topology.
/// Same functional form as the Predictor but reading true host state — the
/// gap between this and the prediction is precisely what experiments E3/E6
/// quantify.  Run-to-run noise is the Data Manager's own draw
/// (RuntimeOptions::exec_noise_cv).
class GroundTruthModel {
 public:
  explicit GroundTruthModel(const net::Topology& topology)
      : topology_(topology) {}

  /// Instantaneous progress rate (MFLOP/s) of the task under *current* live
  /// loads.  The Data Manager executes tasks in quanta, re-reading this
  /// rate at each quantum boundary, so background-load changes mid-run
  /// speed tasks up or slow them down — the behaviour the overload-
  /// rescheduling experiment (E6) depends on.  When `exclude_own_share` is
  /// true, each host's load is reduced by 1.0 first (the caller has already
  /// added the task's own contribution to the topology).
  double rate_mflops(const db::TaskPerfRecord& task,
                     const std::vector<common::HostId>& hosts,
                     bool exclude_own_share) const;

 private:
  const net::Topology& topology_;
};

}  // namespace vdce::predict
