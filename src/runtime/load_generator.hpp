// Background load dynamics.
//
// VDCE targets *non-dedicated* networked resources: other users' jobs come
// and go underneath the scheduler.  The generator gives every host a
// mean-reverting random-walk load (an Ornstein–Uhlenbeck-style process,
// clamped at zero) plus optional injected spikes, producing exactly the
// conditions the monitoring pipeline (E4), prediction error (E3), and
// overload-rescheduling (E6) experiments need.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace vdce::runtime {

struct LoadGeneratorOptions {
  double mean_load = 0.4;    ///< long-run mean per host
  double reversion = 0.2;    ///< pull toward the mean per step
  double volatility = 0.15;  ///< per-step noise stddev
};

class BackgroundLoadGenerator {
 public:
  BackgroundLoadGenerator(sim::Engine& engine, net::Topology& topology,
                          common::Rng rng, LoadGeneratorOptions options = {})
      : engine_(engine), topology_(topology), rng_(rng), options_(options) {}

  /// Start perturbing every host's background load.
  void start();
  void stop();

  /// Add `amount` load to a host now, removing it after `duration` — an
  /// external job arriving (drives the E6 rescheduling experiment).
  void inject_spike(common::HostId host, double amount,
                    common::SimDuration duration);

 private:
  void step();

  sim::Engine& engine_;
  net::Topology& topology_;
  common::Rng rng_;
  LoadGeneratorOptions options_;
  sim::TimerHandle timer_;
  /// Background component per host (VDCE task load is layered on top by
  /// the Data Manager, so the generator must only touch its own share).
  std::vector<double> background_;
};

}  // namespace vdce::runtime
