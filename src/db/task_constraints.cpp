#include "db/task_constraints.hpp"

#include <algorithm>

namespace vdce::db {

void TaskConstraintsDb::register_executable(const std::string& task_name,
                                            common::HostId host,
                                            std::string path) {
  paths_[task_name][host] = std::move(path);
}

void TaskConstraintsDb::register_everywhere(
    const std::string& task_name, const std::vector<common::HostId>& hosts) {
  for (common::HostId h : hosts) {
    register_executable(task_name, h, "/usr/vdce/tasks/" + task_name);
  }
}

common::Expected<std::string> TaskConstraintsDb::executable_path(
    const std::string& task_name, common::HostId host) const {
  auto it = paths_.find(task_name);
  if (it != paths_.end()) {
    auto jt = it->second.find(host);
    if (jt != it->second.end()) return jt->second;
  }
  return common::Error{common::ErrorCode::kNotFound,
                       "no executable for " + task_name + " on host id " +
                           std::to_string(host.value())};
}

bool TaskConstraintsDb::runnable_on(const std::string& task_name,
                                    common::HostId host) const {
  auto it = paths_.find(task_name);
  return it != paths_.end() && it->second.contains(host);
}

bool TaskConstraintsDb::constrains(const std::string& task_name) const {
  auto it = paths_.find(task_name);
  return it != paths_.end() && !it->second.empty();
}

std::vector<common::HostId> TaskConstraintsDb::hosts_for(
    const std::string& task_name) const {
  std::vector<common::HostId> out;
  auto it = paths_.find(task_name);
  if (it != paths_.end()) {
    out.reserve(it->second.size());
    for (const auto& [host, path] : it->second) out.push_back(host);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vdce::db
