// Deterministic random number generation.
//
// Reproducibility is a core requirement: every benchmark in EXPERIMENTS.md
// must print the same table on every run.  All stochastic behaviour in the
// environment (workload noise, failure injection, random DAG generation,
// baseline schedulers) draws from an explicitly seeded Rng; nothing in the
// library touches std::random_device or global generator state.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace vdce::common {

/// Seeded pseudo-random generator with the handful of distributions the
/// environment needs.  Thin wrapper over std::mt19937_64 so the engine can
/// be swapped without touching call sites.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal draw clamped to be >= `floor` (loads, durations must stay
  /// non-negative).  `stddev` must be >= 0; at 0 the draw is `mean`, and
  /// the engine still advances as for any other spread.
  double normal(double mean, double stddev, double floor = 0.0);

  /// Exponential inter-arrival draw with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double p);

  /// Pick an index in [0, n) — n must be > 0.
  std::size_t pick_index(std::size_t n);

  /// Derive an independent child generator; used so each simulated host's
  /// load noise stream does not perturb the others.
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace vdce::common
