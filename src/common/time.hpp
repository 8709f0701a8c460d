// Simulated-time types.
//
// The whole VDCE runtime (monitor daemons, echo packets, task executions,
// data transfers) runs against a virtual clock owned by the discrete-event
// engine.  Time is kept as a double count of seconds: the models that
// produce durations (transfer time = latency + bytes/bandwidth, predicted
// execution time = flops/speed) are naturally real-valued, and determinism
// is preserved because every run performs the identical sequence of
// floating-point operations.
#pragma once

#include <cmath>
#include <compare>
#include <string>

namespace vdce::common {

/// A point on the simulation clock, in seconds since simulation start.
using SimTime = double;

/// A span of simulated time, in seconds.
using SimDuration = double;

constexpr SimTime kSimStart = 0.0;

/// Convenience constructors so call sites read in natural units.
constexpr SimDuration seconds(double s) noexcept { return s; }
constexpr SimDuration milliseconds(double ms) noexcept { return ms * 1e-3; }
constexpr SimDuration microseconds(double us) noexcept { return us * 1e-6; }
constexpr SimDuration minutes(double m) noexcept { return m * 60.0; }

/// True when two times are equal within one nanosecond — used by tests that
/// compare analytically computed schedules against simulated ones.
inline bool time_close(SimTime a, SimTime b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * (1.0 + std::fabs(a) + std::fabs(b));
}

}  // namespace vdce::common
