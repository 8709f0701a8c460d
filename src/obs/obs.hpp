// vdce::obs — the observability subsystem (docs/OBSERVABILITY.md).
//
// One Observability instance per VdceEnvironment bundles the metrics
// registry and the trace sink.  Components receive a (possibly null)
// Observability* at wiring time and guard every record with the cheap
// metrics_on()/trace_on() checks, so a run with observability disabled pays
// one branch per instrumentation site and allocates nothing.
#pragma once

#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vdce::obs {

struct MetricsOptions {
  bool enabled = false;
};

class Observability {
 public:
  Observability() = default;
  Observability(const MetricsOptions& metrics, const TraceOptions& trace,
                const FlightOptions& flight = {},
                const health::HealthOptions& health = {})
      : metrics_on_(metrics.enabled),
        trace_(trace),
        flight_(flight),
        health_(health) {
    // The plane mirrors alerts into the metrics registry and trace stream;
    // wire() is a no-op when the plane is disabled, so a health-off run
    // never touches either sink.
    health_.wire(metrics.enabled ? &metrics_ : nullptr, &trace_);
  }

  [[nodiscard]] bool metrics_on() const noexcept { return metrics_on_; }
  [[nodiscard]] bool trace_on() const noexcept { return trace_.enabled(); }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] TraceSink& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceSink& trace() const noexcept { return trace_; }

  /// The always-on ring: it records even when metrics and tracing are both
  /// off (that's its job).
  [[nodiscard]] FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const FlightRecorder& flight() const noexcept {
    return flight_;
  }

  /// The live health plane (docs/OBSERVABILITY.md "Health plane"): labelled
  /// time-series, SLO rules, alerts.  Disabled by default, and switched by
  /// its own option, not by metrics_on() or trace_on().
  [[nodiscard]] bool health_on() const noexcept { return health_.enabled(); }
  [[nodiscard]] health::HealthPlane& health() noexcept { return health_; }
  [[nodiscard]] const health::HealthPlane& health() const noexcept {
    return health_;
  }

 private:
  bool metrics_on_ = false;
  MetricsRegistry metrics_;
  TraceSink trace_;
  FlightRecorder flight_;
  health::HealthPlane health_;
};

}  // namespace vdce::obs
