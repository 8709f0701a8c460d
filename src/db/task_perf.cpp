#include "db/task_perf.hpp"

#include <algorithm>

#include "common/strings.hpp"

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

std::string TaskPerformanceDb::serialize() const {
  std::string out;
  for (const TaskPerfRecord& r : all_tasks()) {
    out += "task|" + common::escape_field(r.task_name) + "|" +
           common::format_double(r.computation_mflop, 6) + "|" +
           common::format_double(r.communication_bytes, 3) + "|" +
           common::format_double(r.required_memory_mb, 3) + "|" +
           common::format_double(r.base_exec_time, 9) + "|" +
           common::format_double(r.parallel_fraction, 6) + "\n";
  }
  // Deterministic measurement order: by task name then host id.
  std::vector<std::string> names;
  for (const auto& [name, by_host] : measurements_) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::vector<std::pair<common::HostId, MeasuredTime>> entries(
        measurements_.at(name).begin(), measurements_.at(name).end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [host, measured] : entries) {
      out += "meas|" + common::escape_field(name) + "|" +
             std::to_string(host.value()) + "|" +
             common::format_double(measured.mean, 9) + "|" +
             std::to_string(measured.count) + "\n";
    }
  }
  return out;
}

common::Expected<TaskPerformanceDb> TaskPerformanceDb::deserialize(
    const std::string& text) {
  TaskPerformanceDb db;
  for (const std::string& line : common::split(text, '\n')) {
    if (common::trim(line).empty()) continue;
    auto fields = common::split(line, '|');
    if (fields[0] == "task" && fields.size() == 7) {
      auto name = common::unescape_field(fields[1]);
      auto mflop = common::parse_double(fields[2]);
      auto bytes = common::parse_double(fields[3]);
      auto mem = common::parse_double(fields[4]);
      auto base = common::parse_double(fields[5]);
      auto pf = common::parse_double(fields[6]);
      if (!name || !mflop || !bytes || !mem || !base || !pf) {
        return common::Error{common::ErrorCode::kParseError,
                             "bad task record: " + line};
      }
      TaskPerfRecord rec;
      rec.task_name = *name;
      rec.computation_mflop = *mflop;
      rec.communication_bytes = *bytes;
      rec.required_memory_mb = *mem;
      rec.base_exec_time = *base;
      rec.parallel_fraction = *pf;
      db.register_task(std::move(rec));
      continue;
    }
    if (fields[0] == "meas" && fields.size() == 5) {
      auto name = common::unescape_field(fields[1]);
      auto host = common::parse_uint(fields[2]);
      auto mean = common::parse_double(fields[3]);
      auto count = common::parse_uint(fields[4]);
      if (!name || !host || !mean || !count) {
        return common::Error{common::ErrorCode::kParseError,
                             "bad measurement record: " + line};
      }
      MeasuredTime measured;
      measured.mean = *mean;
      measured.count = static_cast<std::size_t>(*count);
      db.measurements_[*name][common::HostId(
          static_cast<common::HostId::value_type>(*host))] = measured;
      continue;
    }
    return common::Error{common::ErrorCode::kParseError,
                         "bad task-performance line: " + line};
  }
  return db;
}

std::vector<TaskPerfRecord> TaskPerformanceDb::all_tasks() const {
  std::vector<TaskPerfRecord> out;
  out.reserve(records_.size());
  for (const auto& [name, rec] : records_) out.push_back(rec);
  std::sort(out.begin(), out.end(),
            [](const TaskPerfRecord& a, const TaskPerfRecord& b) {
              return a.task_name < b.task_name;
            });
  return out;
}

}  // namespace vdce::db
