// Data Manager (§4.2): "a socket-based, point-to-point communication system
// for inter-task communications."
//
// One per host.  On an execution request it plays the paper's protocol:
// activate communication proxies (dm.setup to each remote peer host), wait
// for acknowledgments (dm.setup_ack), and report channel readiness to the
// Application Controller, which informs the origin Site Manager; the
// startup signal (sm.start) then releases execution.
//
// Execution model: each host runs its local tasks one at a time per
// application (separate applications interleave freely).  A task starts
// when all its expected inputs have arrived — staged file inputs (dm.input,
// sent by the origin's I/O service) and dataflow inputs (dm.data from
// parent tasks).  Task durations come from the ground-truth model over live
// topology state; while a task runs, one CPU's worth of load is added to
// each of its hosts, which is exactly what the monitoring pipeline and the
// Application Controller's overload check observe.
//
// Real payloads: when the plan carries kernels, inputs/outputs are actual
// values (matrices, signals) and the kernel runs at completion time, so
// examples compute real answers while timing stays simulated.
//
// Recovery support: produced outputs are cached per application so a
// dm.resend (issued by the coordinator when a consumer task moves to a new
// host) can re-deliver an edge; for not-yet-finished producers the resend
// installs a redirect consulted at completion time.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "runtime/core.hpp"
#include "runtime/protocol.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

/// Channel setup retry: an unacknowledged dm.setup (lost to a partition or
/// a transient-loss window) is resent after kChannelRetryTimeout, each later
/// wait kChannelBackoff times longer, and the peer is abandoned after
/// kChannelMaxRetries resends — a permanently partitioned peer must not
/// wedge channel setup forever.
inline constexpr common::SimDuration kChannelRetryTimeout = 1.0;
inline constexpr double kChannelBackoff = 2.0;
inline constexpr int kChannelMaxRetries = 3;

class DataManager {
 public:
  DataManager(RuntimeCore& core, common::HostId host)
      : core_(core), host_(host) {}

  /// Activate for an application (Application Controller, on gm.exec).
  /// `on_channels_ready` fires once every dm.setup has been acknowledged
  /// (immediately if no remote channels are needed).  Re-activation with a
  /// newer plan merges additional local tasks (reschedule path) without a
  /// second handshake.  A valid `pin` marks that task unkillable here.
  void activate(const PlanPtr& plan, std::function<void()> on_channels_ready,
                afg::TaskId pin = {});

  /// Startup signal: begin executing ready local tasks.
  void start_app(common::AppId app);

  void suspend(common::AppId app);
  void resume(common::AppId app);

  /// Terminate every running task of every application on this host (the
  /// Application Controller's overload action).  Returns what was aborted
  /// together with each plan's origin for the reschedule request.
  struct Aborted {
    common::AppId app;
    afg::TaskId task;
    common::HostId origin;
  };
  std::vector<Aborted> abort_running();

  /// Drop a local task that has been moved elsewhere by the coordinator.
  void remove_task(common::AppId app, afg::TaskId task);

  /// Handle dm.* traffic.
  void handle(const net::Message& message);

  [[nodiscard]] common::HostId host() const noexcept { return host_; }

 private:
  struct LocalTask {
    afg::TaskId id;
    std::vector<bool> port_filled;
    std::vector<tasklib::Value> inputs;
    int pending = 0;  ///< expected-but-unfilled input ports
    bool queued = false;
    bool running = false;
    bool done = false;
    /// Quantum-execution state: work left, and this run's noise multiplier.
    double remaining_mflop = 0.0;
    double noise_factor = 1.0;
  };

  /// Key for an out-edge redirect: (from task, from port, to task).
  struct EdgeKey {
    std::uint32_t from;
    int from_port;
    std::uint32_t to;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const {
      return (static_cast<std::size_t>(k.from) << 24) ^
             (static_cast<std::size_t>(k.to) << 4) ^
             static_cast<std::size_t>(k.from_port);
    }
  };

  struct AppState {
    PlanPtr plan;
    std::unordered_map<std::uint32_t, LocalTask> tasks;
    std::deque<std::uint32_t> queue;
    bool started = false;
    bool suspended = false;
    bool busy = false;
    std::uint32_t running_task = 0;
    common::SimTime run_started = 0;
    sim::EventHandle completion;
    /// Channel setup in flight: peer host -> (channel id, resend count).
    /// Unacknowledged setups are resent with exponential backoff and
    /// eventually abandoned, so a partitioned peer cannot wedge readiness.
    struct PendingSetup {
      common::ChannelId channel;
      int resends = 0;
    };
    std::map<common::HostId, PendingSetup> pending_setups;
    bool ready_fired = false;
    std::function<void()> on_ready;
    /// Completion notices already sent, kept for at-least-once re-delivery
    /// when the coordinator re-sends sm.start (its copy may have been lost;
    /// the coordinator dedupes on task id).
    std::vector<TaskDonePtr> done_log;
    /// Cached outputs of completed local tasks (for resends).
    std::unordered_map<std::uint32_t, std::vector<tasklib::Value>> outputs;
    std::unordered_map<EdgeKey, common::HostId, EdgeKeyHash> redirects;
    /// Tasks the overload policy may no longer terminate (attempt cap).
    std::unordered_set<std::uint32_t> unkillable;
  };

  void merge_local_tasks(AppState& state);
  void setup_channels(AppState& state);
  void send_setup(common::AppId app, common::HostId peer);
  void fire_ready(AppState& state);
  void maybe_start(common::AppId app);
  /// Run one execution quantum of the current task; re-evaluates the live
  /// progress rate at each boundary and finishes when work is exhausted.
  void run_quantum(common::AppId app, std::uint32_t task_value);
  void finish_task(common::AppId app, std::uint32_t task_value);
  void deliver(AppState& state, afg::TaskId task, int port,
               const tasklib::Value& value, common::AppId app);
  void send_edge(AppState& state, const afg::Edge& edge,
                 const tasklib::Value& value);
  void send_task_done(AppState& state, afg::TaskId task,
                      common::SimDuration elapsed, bool failed,
                      const std::string& error, tasklib::Value exit_output);

  RuntimeCore& core_;
  common::HostId host_;
  std::unordered_map<std::uint32_t, AppState> apps_;
};

}  // namespace vdce::runtime
