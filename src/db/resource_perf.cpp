#include "db/resource_perf.hpp"

#include <algorithm>

namespace vdce::db {

common::Status ResourcePerformanceDb::register_host(ResourceRecord record) {
  if (records_.contains(record.host)) {
    return common::Error{common::ErrorCode::kAlreadyExists,
                         "host already registered: " + record.host_name};
  }
  records_.emplace(record.host, std::move(record));
  return common::Status::success();
}

common::Expected<ResourceRecord> ResourcePerformanceDb::find(
    common::HostId host) const {
  auto it = records_.find(host);
  if (it == records_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "host not in resource db: id " +
                             std::to_string(host.value())};
  }
  return it->second;
}

const ResourceRecord* ResourcePerformanceDb::record(common::HostId host) const {
  auto it = records_.find(host);
  return it == records_.end() ? nullptr : &it->second;
}

common::Expected<ResourceRecord> ResourcePerformanceDb::find(
    const std::string& host_name) const {
  for (const auto& [id, rec] : records_) {
    if (rec.host_name == host_name) return rec;
  }
  return common::Error{common::ErrorCode::kNotFound,
                       "host not in resource db: " + host_name};
}

common::Status ResourcePerformanceDb::record_workload(common::HostId host,
                                                      WorkloadSample sample) {
  auto it = records_.find(host);
  if (it == records_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "workload for unknown host id " +
                             std::to_string(host.value())};
  }
  it->second.workload_history.push_back(sample);
  return common::Status::success();
}

common::Status ResourcePerformanceDb::set_host_up(common::HostId host,
                                                  bool up) {
  auto it = records_.find(host);
  if (it == records_.end()) {
    return common::Error{common::ErrorCode::kNotFound,
                         "status for unknown host id " +
                             std::to_string(host.value())};
  }
  it->second.up = up;
  return common::Status::success();
}

std::vector<ResourceRecord> ResourcePerformanceDb::available_hosts(
    common::SiteId site) const {
  std::vector<ResourceRecord> out;
  for (const auto& [id, rec] : records_) {
    if (rec.site == site && rec.up) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const ResourceRecord& a, const ResourceRecord& b) {
              return a.host < b.host;
            });
  return out;
}

}  // namespace vdce::db
