// Shared runtime context and tuning knobs.
//
// One RuntimeCore exists per simulated environment; every daemon holds a
// reference.  It owns the models (prediction, ground-truth execution time)
// and the runtime RNG, and carries references to the engine/fabric/topology,
// the per-site repositories the daemons read and write, and the user object
// store the I/O service writes output files into.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "db/site_repository.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "predict/model.hpp"
#include "runtime/events.hpp"
#include "sched/reservations.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

class ObjectStore;  // runtime/services.hpp

struct RuntimeOptions {
  // --- monitoring (§4.1) ---
  common::SimDuration monitor_period = 1.0;   ///< Monitor daemon sampling
  double measurement_noise = 0.02;            ///< stddev of load samples
  double significant_change = 0.15;           ///< Group Manager forward filter
  common::SimDuration echo_period = 2.0;      ///< Group Manager echo packets
  // --- application control (§4.1) ---
  common::SimDuration controller_period = 1.0;  ///< App Controller load checks
  double overload_threshold = 2.5;  ///< terminate + reschedule above this load
  common::SimDuration progress_period = 5.0;  ///< coordinator stall sweep
  // --- hardened recovery (fault-injection plane) ---
  /// Coordinator recovery budget per application: after this many task
  /// re-placements (host down, overload, cascade) the app is failed with a
  /// descriptive report instead of looping forever.  Stall resends,
  /// relaunches and pins do not charge it.
  int max_app_recovery_actions = 64;
  /// Coordinator stall handling: a task with no progress for this many
  /// progress sweeps gets its start message and inputs re-sent.
  int stall_sweeps = 2;
  // --- execution model ---
  double exec_noise_cv = 0.05;  ///< run-to-run execution time variation
  // --- scheduling ---
  std::size_t k_nearest = 2;  ///< S_remote size (Fig. 2 step 2)
  /// Bid-gathering deadline: the origin assigns with whatever
  /// host-selection outputs have arrived once this much simulated time has
  /// passed (a dead or unreachable remote site must not hang scheduling).
  common::SimDuration bid_timeout = 2.0;
  std::uint64_t seed = 1234;
};

class RuntimeCore {
 public:
  RuntimeCore(sim::Engine& engine, net::Fabric& fabric, net::Topology& topology,
              std::vector<db::SiteRepository*> repos, ObjectStore& store,
              RuntimeOptions options)
      : engine_(engine),
        fabric_(fabric),
        topology_(topology),
        repos_(std::move(repos)),
        store_(store),
        options_(options),
        predictor_(),
        ground_truth_(topology),
        rng_(options.seed) {}

  RuntimeCore(const RuntimeCore&) = delete;
  RuntimeCore& operator=(const RuntimeCore&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] net::Topology& topology() noexcept { return topology_; }
  [[nodiscard]] const net::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] db::SiteRepository& repo(common::SiteId site) {
    return *repos_.at(site.value());
  }
  [[nodiscard]] const std::vector<db::SiteRepository*>& repos() const noexcept {
    return repos_;
  }
  /// The user's VDCE file space (I/O service, runtime/services.hpp).
  [[nodiscard]] ObjectStore& store() noexcept { return store_; }
  [[nodiscard]] const RuntimeOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const predict::Predictor& predictor() const noexcept {
    return predictor_;
  }
  [[nodiscard]] const predict::GroundTruthModel& ground_truth() const noexcept {
    return ground_truth_;
  }
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }

  /// Host reservations shared by every site coordinator — the source of
  /// truth that keeps concurrent applications from double-booking machines
  /// (sched/reservations.hpp, docs/TENANCY.md).  Since the advance-
  /// reservation plane (docs/RESERVATIONS.md) this is the time-indexed
  /// WindowTable; the instantaneous acquire/release surface is unchanged
  /// and the zero-window case behaves identically to the old table.
  [[nodiscard]] sched::WindowTable& reservations() noexcept {
    return reservations_;
  }
  [[nodiscard]] const sched::WindowTable& reservations() const noexcept {
    return reservations_;
  }

  [[nodiscard]] common::SimTime now() const noexcept { return engine_.now(); }

  // --- observability -------------------------------------------------------
  /// Attach the environment's Observability (null detaches).  Daemons guard
  /// every record with tracing()/metering(), so a core without observability
  /// pays one branch per instrumentation site.
  void set_observability(obs::Observability* obs) noexcept {
    obs_ = obs;
    counters_.fill(nullptr);
  }
  [[nodiscard]] obs::Observability* obs() const noexcept { return obs_; }
  [[nodiscard]] bool tracing() const noexcept {
    return obs_ != nullptr && obs_->trace_on();
  }
  [[nodiscard]] bool metering() const noexcept {
    return obs_ != nullptr && obs_->metrics_on();
  }
  /// Valid only when tracing()/metering() respectively returned true.
  [[nodiscard]] obs::TraceSink& trace_sink() noexcept { return obs_->trace(); }
  [[nodiscard]] obs::MetricsRegistry& meters() noexcept {
    return obs_->metrics();
  }

  /// Always-on flight-recorder hook (obs/flight.hpp): a handful of stores
  /// into a preallocated ring, independent of tracing()/metering().  Safe to
  /// call unguarded from any instrumentation site.
  void flight(obs::FlightCode code, std::uint32_t track = 0xFFFFFFFFu,
              std::uint32_t a = 0xFFFFFFFFu, std::uint32_t b = 0xFFFFFFFFu,
              double v = 0.0) noexcept {
    if (obs_ != nullptr) obs_->flight().record(engine_.now(), code, track, a, b, v);
  }

  // --- health plane (obs/health.hpp, docs/OBSERVABILITY.md) -----------------
  /// Daemons guard their series feeds with health_on(); health_plane() is
  /// valid only when it returned true.
  [[nodiscard]] bool health_on() const noexcept {
    return obs_ != nullptr && obs_->health_on();
  }
  [[nodiscard]] obs::health::HealthPlane& health_plane() noexcept {
    return obs_->health();
  }

  /// Record a recovery or detection event (runtime/events.hpp) in each sink
  /// its kRuntimeEvents row names: flight ring, metrics counter, health
  /// series, then trace instant.  Safe to call unguarded; with metrics,
  /// health and tracing off it allocates nothing.  Records whose payload is
  /// not a fixed arg set — the exec.task span and its dependency list,
  /// sched.bid_gather, sched.host_selection, app.setup and app.run — and
  /// counter-only sites such as monitor.samples stay direct calls.
  void emit(const RuntimeEvent& event);

 private:
  sim::Engine& engine_;
  net::Fabric& fabric_;
  net::Topology& topology_;
  std::vector<db::SiteRepository*> repos_;
  ObjectStore& store_;
  RuntimeOptions options_;
  predict::Predictor predictor_;
  predict::GroundTruthModel ground_truth_;
  sched::WindowTable reservations_;
  common::Rng rng_;
  obs::Observability* obs_ = nullptr;
  /// Each kind's metrics counter, resolved on its first emit so that kinds
  /// that never fire leave no zero counter in the export.
  std::array<obs::Counter*, kRuntimeEventKinds> counters_{};
};

}  // namespace vdce::runtime
