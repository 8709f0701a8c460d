#include "runtime/load_generator.hpp"

#include <algorithm>

namespace vdce::runtime {

namespace {

/// Simulated seconds between background-load updates.
constexpr common::SimDuration kUpdatePeriod = 0.5;

}  // namespace

void BackgroundLoadGenerator::start() {
  background_.assign(topology_.host_count(), 0.0);
  // Start each host at an independent draw around the mean.
  for (std::size_t h = 0; h < background_.size(); ++h) {
    background_[h] = rng_.normal(options_.mean_load, options_.volatility, 0.0);
    topology_.add_cpu_load(common::HostId(static_cast<std::uint32_t>(h)),
                           background_[h]);
  }
  timer_ = engine_.every(kUpdatePeriod, [this] { step(); });
}

void BackgroundLoadGenerator::stop() { timer_.cancel(); }

void BackgroundLoadGenerator::step() {
  for (std::size_t h = 0; h < background_.size(); ++h) {
    double current = background_[h];
    double next = current +
                  options_.reversion * (options_.mean_load - current) +
                  rng_.normal(0.0, options_.volatility, -10.0);
    next = std::max(0.0, next);
    topology_.add_cpu_load(common::HostId(static_cast<std::uint32_t>(h)),
                           next - current);
    background_[h] = next;
  }
}

void BackgroundLoadGenerator::inject_spike(common::HostId host, double amount,
                                           common::SimDuration duration) {
  topology_.add_cpu_load(host, amount);
  engine_.schedule(duration, [this, host, amount] {
    topology_.add_cpu_load(host, -amount);
  });
}

}  // namespace vdce::runtime
