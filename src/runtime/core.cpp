#include "runtime/core.hpp"

namespace vdce::runtime {

void RuntimeCore::emit(const RuntimeEvent& e) {
  const auto kind = static_cast<std::size_t>(e.kind);
  const RuntimeEventRow& row = kRuntimeEvents[kind];
  const bool has_host = e.host != obs::kNoCausalId;
  if (row.flight) {
    const std::uint32_t b = row.b == FlightField::kTask ? e.task
                            : row.b == FlightField::kN
                                ? static_cast<std::uint32_t>(e.n)
                                : obs::kNoCausalId;
    const double v = row.v == FlightField::kV   ? e.v
                     : row.v == FlightField::kN ? static_cast<double>(e.n)
                                                : 0.0;
    flight(*row.flight, has_host ? e.host : e.track, e.app, b, v);
  }
  if (metering()) {
    if (counters_[kind] == nullptr) {
      counters_[kind] = &meters().counter(row.counter);
    }
    counters_[kind]->add();
  }
  // Before the instant: a series' first use writes a health.series record.
  if (row.health != nullptr && health_on()) {
    obs::health::SeriesKey key;
    key.metric = row.health;
    key.host = has_host ? std::int64_t{e.host} : -1;
    key.site = e.site;
    obs_->health().observe_delta(key, now(), 1.0);
  }
  if (row.name != nullptr && tracing()) {
    trace_sink().instant(row.category, row.name, now(),
                         row.control_track ? obs::kControlTrack : e.track,
                         row.args(e),
                         obs::Causal{.app = e.app, .task = e.task});
  }
}

}  // namespace vdce::runtime
