// Resource-performance database (§3): "resource (machine and network)
// attributes or parameters such as host name, IP address, architecture
// type, OS type, total memory size of the machine, recent workload
// measurements, and available memory size."
//
// This is the scheduler's view of the machines — distinct from the ground
// truth in net::Topology.  The Monitor → Group Manager → Site Manager
// pipeline (§4.1) copies measurements into this database; the Host
// Selection Algorithm reads them.  The gap between the two (staleness,
// significant-change filtering) is itself an experimental variable (E4).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace vdce::db {

/// One workload sample as forwarded by a Group Manager.
struct WorkloadSample {
  common::SimTime time = 0.0;
  double cpu_load = 0.0;      ///< 0 = idle, 1 = one busy cpu's worth
  double available_mb = 0.0;  ///< free memory at sample time
};

/// The recent measurement window of one machine: a fixed-capacity FIFO
/// held inline, oldest first.  push_back on a full window evicts the oldest
/// sample, so the window always holds the latest kCapacity samples — and
/// copying or sorting a record never allocates for its history.
class WorkloadHistory {
 public:
  static constexpr std::size_t kCapacity = 16;

  void push_back(const WorkloadSample& sample) {
    if (size_ == kCapacity) {
      slots_[head_] = sample;
      head_ = (head_ + 1) % kCapacity;
    } else {
      slots_[(head_ + size_) % kCapacity] = sample;
      ++size_;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// `i`-th oldest retained sample (0 = oldest).
  [[nodiscard]] const WorkloadSample& operator[](std::size_t i) const {
    return slots_[(head_ + i) % kCapacity];
  }
  [[nodiscard]] const WorkloadSample& front() const { return (*this)[0]; }
  [[nodiscard]] const WorkloadSample& back() const {
    return (*this)[size_ - 1];
  }

  /// Oldest-first iteration.
  class const_iterator {
   public:
    const_iterator(const WorkloadHistory* h, std::size_t i) : h_(h), i_(i) {}
    const WorkloadSample& operator*() const { return (*h_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const WorkloadHistory* h_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  std::array<WorkloadSample, kCapacity> slots_{};
  std::size_t head_ = 0;  ///< slot of the oldest sample
  std::size_t size_ = 0;
};

/// A machine's record: static attributes plus the recent measurement window.
struct ResourceRecord {
  common::HostId host;
  common::SiteId site;
  std::string host_name;
  std::string ip;
  std::string arch;
  std::string os;
  std::string machine_type;
  double speed_mflops = 0.0;
  double total_memory_mb = 0.0;
  bool up = true;

  /// Most recent samples, oldest first; bounded by kHistoryLen.
  WorkloadHistory workload_history;

  static constexpr std::size_t kHistoryLen = WorkloadHistory::kCapacity;

  /// Latest known load; 0 when no sample has arrived yet (optimistic, like
  /// the prototype's freshly-registered hosts).
  [[nodiscard]] double current_load() const {
    return workload_history.empty() ? 0.0 : workload_history.back().cpu_load;
  }
  [[nodiscard]] double available_mb() const {
    return workload_history.empty() ? total_memory_mb
                                    : workload_history.back().available_mb;
  }
  [[nodiscard]] common::SimTime last_sample_time() const {
    return workload_history.empty() ? -1.0 : workload_history.back().time;
  }
};

class ResourcePerformanceDb {
 public:
  /// Register a machine (done at site bring-up from the topology).
  common::Status register_host(ResourceRecord record);

  common::Expected<ResourceRecord> find(common::HostId host) const;
  /// Non-copying lookup: null when `host` is not registered.  The pointer
  /// stays valid for the database's lifetime (records are never erased).
  [[nodiscard]] const ResourceRecord* record(common::HostId host) const;
  common::Expected<ResourceRecord> find(const std::string& host_name) const;

  /// Append a workload measurement (Site Manager, on Group Manager report).
  common::Status record_workload(common::HostId host, WorkloadSample sample);

  /// Mark a host up/down (Site Manager, on failure detection — the paper's
  /// "the host is then marked as 'down' at the site's
  /// resource-performance database").
  common::Status set_host_up(common::HostId host, bool up);

  /// All *up* hosts at a site — the candidate set R_set the Host Selection
  /// Algorithm retrieves (Fig. 3, step 2).
  [[nodiscard]] std::vector<ResourceRecord> available_hosts(
      common::SiteId site) const;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  std::unordered_map<common::HostId, ResourceRecord> records_;
};

}  // namespace vdce::db
