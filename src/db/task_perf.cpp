#include "db/task_perf.hpp"

namespace vdce::db {

void TaskPerformanceDb::register_task(TaskPerfRecord record) {
  records_[record.task_name] = std::move(record);
}

common::Expected<TaskPerfRecord> TaskPerformanceDb::find(
    const std::string& task_name) const {
  if (const TaskPerfRecord* record = lookup(task_name)) return *record;
  return common::Error{common::ErrorCode::kNotFound,
                       "task not in task-performance db: " + task_name};
}

common::Status TaskPerformanceDb::record_execution(
    const std::string& task_name, common::HostId host,
    common::SimDuration elapsed) {
  if (!records_.contains(task_name)) {
    return common::Error{common::ErrorCode::kNotFound,
                         "execution of unknown task: " + task_name};
  }
  measurements_[task_name][host].add(elapsed);
  return common::Status::success();
}

std::optional<MeasuredTime> TaskPerformanceDb::measured(
    const std::string& task_name, common::HostId host) const {
  const MeasuredRow* row = measured_row(task_name);
  if (row == nullptr) return std::nullopt;
  auto it = row->find(host);
  if (it == row->end()) return std::nullopt;
  return it->second;
}

const MeasuredRow* TaskPerformanceDb::measured_row(
    const std::string& task_name) const {
  auto it = measurements_.find(task_name);
  return it == measurements_.end() ? nullptr : &it->second;
}

}  // namespace vdce::db
