// Wire protocol of the VDCE runtime (Figure 4 plus §4.1/§4.2).
//
// Every interaction the paper describes is a typed message on the fabric:
//
//   Monitor daemon --mon.report--> Group Manager        (workload samples)
//   Group Manager  --gm.report--->  Site Manager        (significant changes)
//   Group Manager  --gm.echo----->  member hosts        (failure detection)
//   member host    --gm.echo_reply-> Group Manager
//   Group Manager  --gm.host_down-> Site Manager
//   origin SiteMgr --sm.afg------->  remote Site Managers (scheduling multicast)
//   remote SiteMgr --sm.bids------>  origin Site Manager  (host-selection output)
//   origin SiteMgr --sm.rat------->  involved Site Managers
//   Site Manager   --sm.rat_gm---->  group leaders
//   Group Manager  --gm.exec------>  Application Controllers
//   Data Manager   --dm.setup----->  peer Data Managers  (channel setup)
//   Data Manager   --dm.setup_ack->  requesting Data Manager
//   App Controller --ac.ready----->  origin Site Manager
//   origin SiteMgr --sm.start----->  Application Controllers (startup signal)
//   Data Manager   --dm.input----->  Data Managers        (staged file inputs)
//   Data Manager   --dm.data------>  Data Managers        (inter-task data)
//   Data Manager   --dm.resend---->  Data Managers        (recovery pulls)
//   App Controller --ac.task_done->  origin Site Manager
//   App Controller --ac.overload-->  origin Site Manager  (reschedule request)
//   Site Manager   --sm.host_down->  all Site Managers    (inter-site coord.)
//
// Type tags are interned net::MsgType ids; payloads travel inline in
// net::Payload (at most 32 bytes).  Structs that are larger, or multicast,
// travel as shared_ptr<const T>: the execution plan (so a 400-task plan is
// not copied per destination), bids replies, completion notices and output
// files.  Changing a struct's size past the inline budget fails to compile
// at its send site.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "afg/graph.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "db/resource_perf.hpp"
#include "db/task_perf.hpp"
#include "net/message.hpp"
#include "sched/host_selection.hpp"
#include "sched/types.hpp"
#include "tasklib/registry.hpp"

namespace vdce::runtime {

// ---- message type tags ----------------------------------------------------
namespace msg {
inline const net::MsgType kMonReport{"mon.report"};
inline const net::MsgType kGmReport{"gm.report"};
inline const net::MsgType kGmEcho{"gm.echo"};
inline const net::MsgType kGmEchoReply{"gm.echo_reply"};
inline const net::MsgType kGmHostDown{"gm.host_down"};
// The Site Manager echo-checks its group-leader machines the same way the
// Group Managers check their members — otherwise a dead leader would go
// undetected (leaders vouch for their members, nobody vouched for them).
inline const net::MsgType kSmEcho{"sm.echo"};
inline const net::MsgType kSmEchoReply{"sm.echo_reply"};
inline const net::MsgType kSmAfg{"sm.afg"};
inline const net::MsgType kSmBids{"sm.bids"};
inline const net::MsgType kSmRat{"sm.rat"};
inline const net::MsgType kSmRatGm{"sm.rat_gm"};
inline const net::MsgType kGmExec{"gm.exec"};
inline const net::MsgType kDmSetup{"dm.setup"};
inline const net::MsgType kDmSetupAck{"dm.setup_ack"};
inline const net::MsgType kAcReady{"ac.ready"};
inline const net::MsgType kSmStart{"sm.start"};
inline const net::MsgType kDmInput{"dm.input"};
inline const net::MsgType kDmData{"dm.data"};
inline const net::MsgType kDmResend{"dm.resend"};
inline const net::MsgType kAcTaskDone{"ac.task_done"};
inline const net::MsgType kDmOutput{"dm.output"};
inline const net::MsgType kAcOverload{"ac.overload"};
inline const net::MsgType kSmHostDown{"sm.host_down"};
inline const net::MsgType kSmSuspend{"sm.suspend"};
inline const net::MsgType kSmResume{"sm.resume"};
}  // namespace msg

// ---- monitoring payloads ---------------------------------------------------

struct MonReport {
  common::HostId host;
  db::WorkloadSample sample;
};

/// One significant change, forwarded as it arrived: the Group Manager's
/// filter passes or drops each monitor report individually.
struct GmReport {
  MonReport changed;
};

struct HostDownNotice {
  common::HostId host;
};

struct EchoPacket {
  common::HostId leader;
  std::uint64_t seq = 0;
};

// ---- scheduling payloads ----------------------------------------------------

/// AFG multicast for remote host selection (Fig. 2 step 3).
struct AfgMulticast {
  common::AppId app;
  common::HostId reply_to;  ///< origin site's server host
  std::shared_ptr<const afg::Afg> graph;
};

/// A remote site's host-selection answer (Fig. 2 step 5).  Sent as
/// BidsReplyPtr; the origin keeps the shared output until assignment.
struct BidsReply {
  common::AppId app;
  sched::HostSelectionOutput output;
};

using BidsReplyPtr = std::shared_ptr<const BidsReply>;

// ---- execution payloads ------------------------------------------------------

/// The immutable execution plan built from the AFG plus the resource
/// allocation table; multicast to every involved daemon.
struct ExecutionPlan {
  common::AppId app;
  common::HostId origin;  ///< origin site's server host (the coordinator)
  /// The application's graph, shared and immutable: the one the user
  /// submitted, from scheduling to the report.  Re-dispatched plans copy
  /// the pointer, never the graph.
  std::shared_ptr<const afg::Afg> graph;
  sched::ResourceAllocationTable rat;
  /// Task perf records by task id value (execution-time model input).
  std::vector<db::TaskPerfRecord> perf;
  /// Real kernels by task id value (may hold empty functions: timing-only).
  std::vector<tasklib::Kernel> kernels;
  /// Initial values for non-dataflow inputs: [task id value][port] -> Value.
  std::unordered_map<std::uint32_t, std::unordered_map<int, tasklib::Value>>
      initial_inputs;

  /// Non-aborting lookup: null when `t` has no assignment (a malformed or
  /// partially rebuilt table).  Prefer this on paths fed by the network.
  [[nodiscard]] const sched::Assignment* find_assignment(afg::TaskId t) const {
    for (const sched::Assignment& a : rat.assignments) {
      if (a.task == t) return &a;
    }
    return nullptr;
  }

  [[nodiscard]] const sched::Assignment& assignment(afg::TaskId t) const {
    if (const sched::Assignment* a = find_assignment(t)) return *a;
    // Every task is assigned by construction.
    std::abort();
  }
};

using PlanPtr = std::shared_ptr<const ExecutionPlan>;

struct RatMulticast {
  PlanPtr plan;
};

struct ExecRequest {
  PlanPtr plan;
  common::HostId target;
  /// When valid, this task is *pinned*: the Application Controller must not
  /// overload-kill it again (the coordinator's attempt cap was reached —
  /// without this, sustained high load livelocks long tasks through endless
  /// kill/restart cycles).
  afg::TaskId pin{};
};

/// Channel setup handshake (§4.2: communication proxy + ACK).
struct ChannelSetup {
  common::AppId app;
  common::HostId from;
  common::ChannelId channel;
};

struct ChannelSetupAck {
  common::AppId app;
  common::HostId from;
  common::ChannelId channel;
};

struct ReadyNotice {
  common::AppId app;
  common::HostId host;
};

struct StartSignal {
  common::AppId app;
};

/// Data arriving on an input port (either staged file input or a parent
/// task's dataflow output).
struct DataDelivery {
  common::AppId app;
  afg::TaskId to_task;
  int to_port = 0;
  tasklib::Value value;  ///< empty for timing-only runs
};

/// Recovery: ask a parent's Data Manager to resend an edge to a new host.
struct ResendRequest {
  common::AppId app;
  afg::TaskId from_task;
  int from_port = 0;
  afg::TaskId to_task;
  int to_port = 0;
  common::HostId new_host;
};

/// A produced output file travelling back to the user's file space (the
/// I/O service writes it into the origin site's object store) — Figure 1's
/// "Output: /users/VDCE/user_k/vector_X.dat".
struct OutputFile {
  common::AppId app;
  afg::TaskId task;
  std::string path;
  double size_bytes = 0.0;
  tasklib::Value value;
};

using OutputFilePtr = std::shared_ptr<const OutputFile>;

struct TaskDone {
  common::AppId app;
  afg::TaskId task;
  common::HostId host;
  /// Actual execution window on the host (the notification itself takes
  /// additional network time to reach the coordinator).
  common::SimTime started = 0.0;
  common::SimTime finished = 0.0;
  common::SimDuration elapsed = 0.0;
  bool failed = false;        ///< kernel raised an error
  std::string error;
  /// Port-0 output value when the task is an exit node with a real kernel
  /// (lets the coordinator assemble application results).
  tasklib::Value exit_output;
};

/// Shared so the Data Manager's re-delivery log and the notice in flight
/// are one object.
using TaskDonePtr = std::shared_ptr<const TaskDone>;

struct OverloadNotice {
  common::AppId app;
  afg::TaskId task;  ///< the task that was terminated
  common::HostId host;
  double observed_load = 0.0;
};

struct SuspendSignal {
  common::AppId app;
};

// ---- representative wire sizes (bytes) --------------------------------------
// Small control messages are charged a fixed header-ish size; structured
// ones scale with content so the monitoring-overhead bench (E4) sees the
// real traffic trade-off.
namespace wire {
inline constexpr double kEcho = 64;
inline constexpr double kSmall = 128;
inline double mon_report() { return 160; }
inline double gm_report() { return 96 + 64; }  ///< header + one change
inline double afg(const afg::Afg& graph) {
  return 256 + 192 * static_cast<double>(graph.task_count()) +
         48 * static_cast<double>(graph.edges().size());
}
inline double bids(const sched::HostSelectionOutput& output) {
  return 96 + 64 * static_cast<double>(output.bid_count());
}
inline double rat(const sched::ResourceAllocationTable& table) {
  return 128 + 96 * static_cast<double>(table.assignments.size());
}
}  // namespace wire

}  // namespace vdce::runtime
