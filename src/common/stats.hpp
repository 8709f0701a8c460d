// Streaming statistics used by benchmark harnesses and the metrics
// registry: mean/stddev/min/max accumulation plus exact percentiles over a
// retained sample vector.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vdce::common {

/// Accumulates samples and answers summary queries.  Samples are retained,
/// so percentile queries are exact; the volumes involved (per-experiment
/// series) make this the right trade-off over a sketch.
///
/// Memory trade-off: every add() keeps its sample (8 bytes each, amortised
/// vector growth), so a Stats instance fed N times holds 8N bytes for the
/// run's lifetime.  That is deliberate — exact percentiles (p50/p90/p99/
/// p99.9) beat sketch approximations at the volumes the benches and the
/// metrics registry see (at most a few million samples, tens of MB).  For
/// long runs with a known sample budget, reserve() avoids the regrowth
/// copies; for unbounded streams where memory matters more than exactness,
/// use a windowed structure (obs::health::TimeSeries) instead.
///
/// Queries on an empty Stats return 0.0 (never NaN/Inf), so exporters can
/// serialise unconditionally; callers that must distinguish "no samples"
/// check empty() / count().
class Stats {
 public:
  void add(double sample);

  /// Pre-size the retained-sample vector (see the class comment).
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// 0.0 when empty.
  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const;
  /// 0.0 when empty.
  [[nodiscard]] double min() const;
  /// 0.0 when empty.
  [[nodiscard]] double max() const;
  /// Exact percentile by nearest-rank; p in [0, 100].  0.0 when empty.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

  /// One-line summary: "n=100 mean=1.23 sd=0.45 min=0.1 p50=1.2 p99=3.4 max=5.0".
  [[nodiscard]] std::string summary(int precision = 3) const;

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

}  // namespace vdce::common
