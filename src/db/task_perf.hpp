// Task-performance database (§3): "provides performance characteristics for
// each task in the system and is used to predict the performance of a task
// on a given resource.  Each task implementation is specified by several
// parameters such as computation size, communication size, required memory
// size, etc."
//
// Two kinds of data live here:
//  1. per-task-implementation parameters (TaskPerfRecord) seeded when a
//     task library registers itself, and
//  2. measured execution times per (task, host) pair, updated by the Site
//     Manager after each application completes (§4.1: "it updates the
//     task-performance database with the execution time after an
//     application execution is completed").  Measurements sharpen the
//     prediction model over time (experiment E3).
//
// The record also stores the "base processor" execution time that the list
// scheduler's level computation uses for node computation costs (§3).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace vdce::db {

/// Static performance characteristics of one task implementation.
struct TaskPerfRecord {
  std::string task_name;          ///< library-qualified, e.g. "matrix.lu_decomposition"
  double computation_mflop = 0.0; ///< work per invocation at reference input size
  double communication_bytes = 0.0;  ///< output volume produced per invocation
  double required_memory_mb = 0.0;
  /// Measured execution time on the base (reference) processor; this is the
  /// computation cost used in level computation.
  common::SimDuration base_exec_time = 0.0;
  /// Fraction of the task that parallelizes (Amdahl); 1.0 = fully parallel.
  double parallel_fraction = 0.0;
};

/// Running average of measured times of a task on one specific host.
struct MeasuredTime {
  double mean = 0.0;
  std::size_t count = 0;

  void add(double sample) {
    ++count;
    mean += (sample - mean) / static_cast<double>(count);
  }
};

/// One task's measured times, by host.
using MeasuredRow = std::unordered_map<common::HostId, MeasuredTime>;

class TaskPerformanceDb {
 public:
  /// Register or replace a task implementation's parameters.
  void register_task(TaskPerfRecord record);

  common::Expected<TaskPerfRecord> find(const std::string& task_name) const;
  /// The record for `task_name`, or null; unlike find() a miss builds no
  /// error, so hot paths that fall back on a miss stay allocation-free.
  [[nodiscard]] const TaskPerfRecord* lookup(
      const std::string& task_name) const {
    auto it = records_.find(task_name);
    return it == records_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool contains(const std::string& task_name) const {
    return records_.contains(task_name);
  }

  /// Record a completed execution of `task_name` on `host` (Site Manager,
  /// post-execution).
  common::Status record_execution(const std::string& task_name,
                                  common::HostId host,
                                  common::SimDuration elapsed);

  /// Measured mean time of the task on the host, if any executions have
  /// been recorded.  The prediction model prefers this over the analytic
  /// estimate once it exists.
  [[nodiscard]] std::optional<MeasuredTime> measured(
      const std::string& task_name, common::HostId host) const;
  /// The task's measured times by host, or null when none were recorded:
  /// a caller predicting one task on many hosts looks its row up once.
  [[nodiscard]] const MeasuredRow* measured_row(
      const std::string& task_name) const;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  std::unordered_map<std::string, TaskPerfRecord> records_;
  // Keyed by task name; inner map keyed by host.
  std::unordered_map<std::string, MeasuredRow> measurements_;
};

}  // namespace vdce::db
