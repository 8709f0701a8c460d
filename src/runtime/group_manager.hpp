// Group Manager (§4.1): runs on each group-leader machine.
//
// Two responsibilities from the paper:
//  1. Workload aggregation with a significant-change filter: "The Group
//     Manager sends to the Site Manager only the workloads of the
//     resources that have changed considerably from the previous
//     measurement."
//  2. Failure detection: "periodically check all hosts in the group by
//     sending echo packets to hosts and waiting for their responses.  When
//     a failure of a host is detected, the Group Manager passes this
//     information to the Site Manager."
//
// Plus its Fig. 4 role in execution fan-out: on receiving the resource
// allocation table from the Site Manager, it forwards an execution request
// with the relevant plan to the Application Controller of each involved
// member machine.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "runtime/core.hpp"
#include "runtime/protocol.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

class GroupManager {
 public:
  GroupManager(RuntimeCore& core, common::GroupId group, common::HostId leader,
               common::HostId site_server)
      : core_(core), group_(group), leader_(leader), site_server_(site_server) {}

  void start();
  void stop();

  void handle(const net::Message& message);

  /// Observability for the failure-detection bench.
  [[nodiscard]] std::uint64_t reports_received() const noexcept {
    return reports_received_;
  }
  [[nodiscard]] std::uint64_t reports_forwarded() const noexcept {
    return reports_forwarded_;
  }

 private:
  /// Per-member monitoring state, parallel to the group's member list
  /// (members are only ever appended, so an index never changes owner).
  struct MemberState {
    /// Last echo round in which the member showed a sign of life.
    std::uint64_t alive_round = 0;
    bool reported_down = false;  ///< avoid repeat gm.host_down notices
    bool forwarded_any = false;  ///< a load was forwarded at least once
    double last_forwarded_load = 0.0;  ///< for the change filter
  };

  /// State of `host`, or null when it is not a member of the group.
  MemberState* member(common::HostId host);
  void on_mon_report(const net::Message& message);
  void on_echo_reply(const net::Message& message);
  void on_rat(const net::Message& message);
  void echo_tick();

  RuntimeCore& core_;
  common::GroupId group_;
  common::HostId leader_;
  common::HostId site_server_;
  sim::TimerHandle echo_timer_;
  bool started_ = false;

  std::vector<MemberState> members_;
  /// Current echo round; a member is alive in it iff alive_round == echo_seq_.
  std::uint64_t echo_seq_ = 0;
  bool echo_outstanding_ = false;

  std::uint64_t reports_received_ = 0;
  std::uint64_t reports_forwarded_ = 0;
};

}  // namespace vdce::runtime
