// Task-constraints database (§3): "used to store the location information
// of each task (i.e., the absolute path of the task executable) for each
// host."  A task can only be scheduled onto hosts that have an installed
// executable for it; this is the feasibility filter the Host Selection
// Algorithm applies to its candidate resource set.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"

namespace vdce::db {

class TaskConstraintsDb {
 public:
  /// Declare that `host` has an executable for `task_name` at `path`.
  void register_executable(const std::string& task_name, common::HostId host,
                           std::string path);

  /// Convenience: declare the task installed on every host in `hosts` under
  /// a conventional path (used by site bring-up for library tasks).
  void register_everywhere(const std::string& task_name,
                           const std::vector<common::HostId>& hosts);

  /// Where the executable lives on `host`, or kNotFound.
  common::Expected<std::string> executable_path(const std::string& task_name,
                                                common::HostId host) const;

  [[nodiscard]] bool runnable_on(const std::string& task_name,
                                 common::HostId host) const;

  /// All hosts that can run the task (unordered).
  [[nodiscard]] std::vector<common::HostId> hosts_for(
      const std::string& task_name) const;

  /// True when any executable is registered for the task — equivalent to
  /// `!hosts_for(task_name).empty()` without materialising the host list.
  [[nodiscard]] bool constrains(const std::string& task_name) const;

  [[nodiscard]] std::size_t size() const noexcept { return paths_.size(); }

 private:
  // task name -> (host -> absolute path)
  std::unordered_map<std::string,
                     std::unordered_map<common::HostId, std::string>>
      paths_;
};

}  // namespace vdce::db
