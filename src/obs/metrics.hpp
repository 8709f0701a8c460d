// Metrics half of the observability layer (docs/OBSERVABILITY.md).
//
// A MetricsRegistry is a name-indexed set of counters, gauges, and
// Stats-backed histograms, instance-scoped (one per VdceEnvironment) so two
// environments in one process never share state.  Instrumentation sites in
// the hot path cache the Counter*/Stats* returned by the registry once, so
// recording is a guarded pointer increment — no map lookup per event.
//
// Everything recorded in the counter/gauge/histogram families is derived
// from simulated time and seeded randomness only (never the wall clock), so
// to_jsonl() exports are byte-identical across identical-seed runs.  Wall
// -clock readings (event-kernel throughput, run durations) go in the
// separate wall_gauge() family, which render() shows but to_jsonl()
// deliberately omits.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace vdce::obs {

/// Monotonic event count (messages sent, samples taken, reschedules, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, clock, bytes in flight).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Name-indexed metric store.  Handles returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime (node-based map), so
/// they may be cached by instrumented components.  Looking up a name that
/// is already registered never allocates (the maps compare transparently
/// against the string_view).
class MetricsRegistry {
 public:
  template <typename T>
  using Family = std::map<std::string, T, std::less<>>;

  Counter& counter(std::string_view name) { return slot(counters_, name); }
  Gauge& gauge(std::string_view name) { return slot(gauges_, name); }
  common::Stats& histogram(std::string_view name) {
    return slot(histograms_, name);
  }
  /// Wall-clock-derived gauge (e.g. sim.events_per_sec).  Kept apart from
  /// the deterministic families: render() includes it, to_jsonl() does not,
  /// so identical-seed exports stay byte-identical.
  Gauge& wall_gauge(std::string_view name) { return slot(wall_gauges_, name); }

  /// Read helpers that never create the metric: 0 / empty when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] const common::Stats* find_histogram(
      const std::string& name) const;

  [[nodiscard]] const Family<Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const Family<Gauge>& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const Family<common::Stats>& histograms() const noexcept {
    return histograms_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           wall_gauges_.empty();
  }

  /// Zero every metric but keep the registered names (cached handles stay
  /// valid) — the analogue of Fabric::reset_stats for a measurement window.
  void reset();

  /// One JSON object per line, metrics in name order within each kind
  /// (counters, then gauges, then histograms).  Wall gauges are omitted —
  /// this export is the byte-identical determinism artifact.  Histogram
  /// lines carry count plus mean/min/p50/p90/p99/p999/max; an empty
  /// histogram exports count 0 with null quantiles (never NaN/Inf).
  /// Example:
  ///   {"kind":"counter","name":"monitor.samples","value":1920}
  [[nodiscard]] std::string to_jsonl() const;

  /// OpenMetrics text exposition (the Prometheus-compatible scrape format):
  /// counters as `<name>_total`, gauges as gauges, histograms as summaries
  /// with p50/p90/p99/p99.9 quantile lines plus _sum/_count.  Metric names
  /// are sanitised ('.' and '-' become '_'); wall gauges are omitted so the
  /// exposition stays byte-identical across identical-seed runs; ends with
  /// the mandatory "# EOF".
  [[nodiscard]] std::string to_openmetrics() const;

  /// Human-readable table for examples and bench footers.
  [[nodiscard]] std::string render() const;

 private:
  template <typename T>
  static T& slot(Family<T>& family, std::string_view name) {
    auto it = family.find(name);
    if (it == family.end()) it = family.emplace(std::string(name), T{}).first;
    return it->second;
  }

  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<common::Stats> histograms_;
  Family<Gauge> wall_gauges_;
};

}  // namespace vdce::obs
