#include "common/rng.hpp"

#include <algorithm>
#include <cassert>

namespace vdce::common {

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev, double floor) {
  assert(stddev >= 0.0);
  // A standard draw scaled by hand: std::normal_distribution requires
  // stddev > 0, and a zero spread (a load model with no volatility) is
  // legal here.  libstdc++ computes `z * stddev + mean` from the same
  // engine draws, so every stream is unchanged.
  const double z = std::normal_distribution<double>(0.0, 1.0)(engine_);
  return std::max(z * stddev + mean, floor);
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t Rng::pick_index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(
      std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_));
}

Rng Rng::fork() {
  // Draw a fresh seed from this stream; the child is then independent.
  return Rng(engine_());
}

}  // namespace vdce::common
