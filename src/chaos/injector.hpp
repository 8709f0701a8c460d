// ChaosInjector — the active half of the vdce::chaos fault-injection plane.
//
// Arms a FaultPlan against a live environment: every fault event becomes a
// pair of begin/end callbacks on the simulation engine, so faults fire at
// exact simulated instants and the whole run stays deterministic.  The
// injector plugs into the layers it perturbs:
//
//   * net::Fabric   — as a FaultInterceptor: partitions and transient loss
//                     drop messages at send time; link degradation rewrites
//                     the LinkSpec used to time each transfer.
//   * net::Topology — host crashes/reboots flip ground-truth up/down; load
//                     spikes park extra CPU load on a host (slowing running
//                     tasks and, past the overload threshold, provoking
//                     terminate-and-reschedule).
//   * runtime       — stale-monitor windows count up the host's
//                     HostState::monitor_mutes, which the monitor daemon
//                     reads (as it reads up/down and load) and, while it is
//                     above zero, skips its samples, starving the
//                     repositories of fresh data.
//
// Every injected fault emits a `chaos.*` trace instant (when tracing is on)
// and appends a FaultRecord to the injector's log; the log's text rendering
// is byte-identical across identical-seed runs and is what
// tests/test_chaos.cpp diffs to assert determinism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace vdce::chaos {

/// One line of the injector's deterministic activity log.
struct FaultRecord {
  common::SimTime time = 0.0;
  std::string what;  ///< e.g. "crash host 3", "partition 0|1 lifted (37 drops)"
};

class ChaosInjector final : public net::FaultInterceptor {
 public:
  /// `obs` may be null (no tracing/metrics).  The injector must outlive the
  /// fabric registration (the environment owns both).
  ChaosInjector(sim::Engine& engine, net::Topology& topology,
                obs::Observability* obs, FaultPlan plan);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// Resolve host references and schedule every event.  Call exactly once,
  /// before the simulation advances past the earliest event.  Fails with a
  /// descriptive error on an unresolvable host/site reference or an invalid
  /// plan; on failure nothing has been scheduled.
  common::Status arm();

  // --- net::FaultInterceptor -------------------------------------------------
  [[nodiscard]] bool should_drop(const net::Message& msg) override;
  [[nodiscard]] net::LinkSpec adjust_link(net::HostId src, net::HostId dst,
                                          net::LinkSpec link) override;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const std::vector<FaultRecord>& log() const noexcept {
    return log_;
  }
  /// Text rendering of the log: "t=5.0000 crash host 3\n..." — byte-identical
  /// across identical-seed runs (the determinism artifact tests diff).
  [[nodiscard]] std::string log_text() const;

  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return total_dropped_;
  }
  [[nodiscard]] std::size_t faults_injected() const noexcept {
    return faults_injected_;
  }

  /// Ground truth for detection scoring (obs/health.hpp): one record per
  /// armed plan event, host references resolved to concrete ids and sites.
  /// Valid only after a successful arm(); empty before.
  [[nodiscard]] std::vector<obs::health::GroundTruthFault> ground_truth() const;

 private:
  struct ActivePartition {
    common::SiteId a, b;
    std::uint64_t drops = 0;
  };
  struct ActiveLoss {
    double rate = 0.0;
    std::string type_prefix;
    std::int64_t site = -1;  ///< -1 = any
    std::uint64_t drops = 0;
  };
  struct ActiveDegrade {
    common::SiteId a, b;
    double latency_x = 1.0;
    double bandwidth_x = 1.0;
  };

  void record(std::string what);
  void trace_instant(const char* name, std::vector<obs::TraceArg> args);
  [[nodiscard]] common::Expected<common::HostId> resolve(
      const HostRef& ref) const;
  [[nodiscard]] common::Expected<common::SiteId> resolve_site(
      std::int64_t site) const;

  /// Schedule the plan event at `index`.  The injected callbacks capture
  /// only (this, index, host) — a FaultEvent carries strings and would
  /// overflow sim::Task's inline budget; the event itself is re-read from
  /// the injector-owned plan at fire time.
  void schedule_event(std::size_t index, common::HostId host);
  /// Hosts a stale-monitor event mutes: the named host, or every host of
  /// the event's site.
  [[nodiscard]] std::vector<common::HostId> stale_targets(
      const FaultEvent& event, common::HostId host) const;

  sim::Engine& engine_;
  net::Topology& topology_;
  obs::Observability* obs_;
  FaultPlan plan_;
  common::Rng rng_;
  bool armed_ = false;
  /// Host reference of each plan event resolved at arm time (HostId{} where
  /// the event names no host); kept for ground_truth().
  std::vector<common::HostId> resolved_hosts_;

  // Active windows.  Each vector is small (bounded by concurrently active
  // plan events), so linear scans on the send path are cheap.
  std::vector<ActivePartition> partitions_;
  std::vector<ActiveLoss> losses_;
  std::vector<ActiveDegrade> degrades_;

  std::vector<FaultRecord> log_;
  std::uint64_t total_dropped_ = 0;
  std::size_t faults_injected_ = 0;
};

}  // namespace vdce::chaos
