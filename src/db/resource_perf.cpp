#include "db/resource_perf.hpp"

#include <algorithm>

#include "common/strings.hpp"

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

std::string ResourcePerformanceDb::serialize() const {
  std::string out;
  for (const ResourceRecord& r : all_hosts()) {
    out += std::to_string(r.host.value()) + "|" +
           std::to_string(r.site.value()) + "|" +
           common::escape_field(r.host_name) + "|" +
           common::escape_field(r.ip) + "|" + common::escape_field(r.arch) +
           "|" + common::escape_field(r.os) + "|" +
           common::escape_field(r.machine_type) + "|" +
           common::format_double(r.speed_mflops, 6) + "|" +
           common::format_double(r.total_memory_mb, 3) + "|" +
           (r.up ? "1" : "0");
    for (const WorkloadSample& s : r.workload_history) {
      out += "|" + common::format_double(s.time, 6) + ";" +
             common::format_double(s.cpu_load, 6) + ";" +
             common::format_double(s.available_mb, 3);
    }
    out += "\n";
  }
  return out;
}

common::Expected<ResourcePerformanceDb> ResourcePerformanceDb::deserialize(
    const std::string& text) {
  ResourcePerformanceDb db;
  for (const std::string& line : common::split(text, '\n')) {
    if (common::trim(line).empty()) continue;
    auto fields = common::split(line, '|');
    if (fields.size() < 10) {
      return common::Error{common::ErrorCode::kParseError,
                           "bad resource line: " + line};
    }
    ResourceRecord rec;
    auto host = common::parse_uint(fields[0]);
    auto site = common::parse_uint(fields[1]);
    auto name = common::unescape_field(fields[2]);
    auto ip = common::unescape_field(fields[3]);
    auto arch = common::unescape_field(fields[4]);
    auto os = common::unescape_field(fields[5]);
    auto type = common::unescape_field(fields[6]);
    auto speed = common::parse_double(fields[7]);
    auto memory = common::parse_double(fields[8]);
    if (!host || !site || !name || !ip || !arch || !os || !type || !speed ||
        !memory) {
      return common::Error{common::ErrorCode::kParseError,
                           "bad resource fields: " + line};
    }
    rec.host = common::HostId(static_cast<common::HostId::value_type>(*host));
    rec.site = common::SiteId(static_cast<common::SiteId::value_type>(*site));
    rec.host_name = *name;
    rec.ip = *ip;
    rec.arch = *arch;
    rec.os = *os;
    rec.machine_type = *type;
    rec.speed_mflops = *speed;
    rec.total_memory_mb = *memory;
    rec.up = fields[9] == "1";
    for (std::size_t i = 10; i < fields.size(); ++i) {
      auto parts = common::split(fields[i], ';');
      if (parts.size() != 3) {
        return common::Error{common::ErrorCode::kParseError,
                             "bad workload sample: " + fields[i]};
      }
      auto t = common::parse_double(parts[0]);
      auto load = common::parse_double(parts[1]);
      auto avail = common::parse_double(parts[2]);
      if (!t || !load || !avail) {
        return common::Error{common::ErrorCode::kParseError,
                             "bad workload sample: " + fields[i]};
      }
      rec.workload_history.push_back(WorkloadSample{*t, *load, *avail});
    }
    auto st = db.register_host(std::move(rec));
    if (!st.ok()) return st.error();
  }
  return db;
}

std::vector<ResourceRecord> ResourcePerformanceDb::all_hosts() const {
  std::vector<ResourceRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(rec);
  std::sort(out.begin(), out.end(),
            [](const ResourceRecord& a, const ResourceRecord& b) {
              return a.host < b.host;
            });
  return out;
}

}  // namespace vdce::db
