// The daemon plane allocates nothing in steady state.
//
// Monitor samples, Group Manager reports, and the Group and Site Manager
// echo rounds are the control traffic every host generates whether or not
// an application runs.  Each message travels as an inline net::Payload
// inside the fabric's delivery closure (an inline sim::Task), lands in
// dense per-member daemon state, and updates a ResourceRecord whose
// workload window is an inline FIFO — so once every table has reached its
// steady size, a window of pure daemon activity must not touch the
// allocator at all.  Proven with the counting replacement operator new of
// tests/alloc_counter.hpp, the same way tests/test_sim_kernel.cpp gates the
// event kernel.
//
// The same holds with the health plane on: its cadence ticks (inter-site
// probes, ring stores, rule evaluation) allocate nothing either, with or
// without a metrics registry wired to it.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace vdce {
namespace {

/// Per-type send counts of the daemon plane's message types.
struct DaemonTraffic {
  std::uint64_t mon_report = 0;
  std::uint64_t gm_report = 0;
  std::uint64_t gm_echo = 0;
  std::uint64_t gm_echo_reply = 0;
  std::uint64_t sm_echo = 0;
  std::uint64_t sm_echo_reply = 0;
};

DaemonTraffic traffic(const net::FabricStats& stats) {
  return DaemonTraffic{stats.sent_by_type("mon.report"),
                       stats.sent_by_type("gm.report"),
                       stats.sent_by_type("gm.echo"),
                       stats.sent_by_type("gm.echo_reply"),
                       stats.sent_by_type("sm.echo"),
                       stats.sent_by_type("sm.echo_reply")};
}

TEST(DaemonPlane, SteadyStateWindowAllocatesNothing) {
  // Default options, except that the Group Managers forward every sample:
  // an idle grid's loads never move past the default change threshold, and
  // the window must exercise the GM -> SM report path too.
  EnvironmentOptions options;
  options.runtime.significant_change = 0.0;
  VdceEnvironment env(scale::make_grid(scale::GridSpec{}), options);
  ASSERT_TRUE(env.try_bring_up().ok());
  const double echo_period = env.core().options().echo_period;

  // Warm-up: every periodic timer has fired, the event arena and the
  // fabric's tables have grown to their steady size, and every host's
  // record holds a full workload window (monitor period 1 s, 16 samples).
  env.run_for(10.0 * echo_period);

  const DaemonTraffic before = traffic(env.fabric().stats());
  const std::uint64_t allocs_before = test::allocation_count();
  env.run_for(4.0 * echo_period);
  const std::uint64_t allocs = test::allocation_count() - allocs_before;
  const DaemonTraffic after = traffic(env.fabric().stats());

  // The window really exercised every daemon-plane message type...
  EXPECT_GT(after.mon_report, before.mon_report);
  EXPECT_GT(after.gm_report, before.gm_report);
  EXPECT_GT(after.gm_echo, before.gm_echo);
  EXPECT_GT(after.gm_echo_reply, before.gm_echo_reply);
  EXPECT_GT(after.sm_echo, before.sm_echo);
  EXPECT_GT(after.sm_echo_reply, before.sm_echo_reply);
  // ...without a single heap allocation.
  EXPECT_EQ(allocs, 0u)
      << "monitor samples, GM reports and GM/SM echo rounds must not "
         "allocate in steady state";
}

/// Warm up a health-on grid, then run a window of cadence ticks and count
/// the allocations inside it.
void expect_health_ticks_allocate_nothing(bool metrics) {
  EnvironmentOptions options;
  options.health.enabled = true;
  options.metrics.enabled = metrics;
  VdceEnvironment env(scale::make_grid(scale::GridSpec{}), options);
  ASSERT_TRUE(env.try_bring_up().ok());
  const double cadence = options.health.cadence;
  env.run_for(10.0 * env.core().options().echo_period);

  const obs::health::HealthPlane& health = env.health();
  const std::uint64_t evaluations_before = health.evaluations();
  const std::uint64_t samples_before = health.samples();
  const std::uint64_t replies_before =
      env.fabric().stats().sent_by_type("health.probe_reply");
  const std::uint64_t allocs_before = test::allocation_count();
  env.run_for(8.0 * cadence);
  const std::uint64_t allocs = test::allocation_count() - allocs_before;

  // The window evaluated the rules and fed host and link series...
  EXPECT_GE(health.evaluations() - evaluations_before, 8u);
  EXPECT_GT(health.samples(), samples_before);
  EXPECT_GT(env.fabric().stats().sent_by_type("health.probe_reply"),
            replies_before);
  if (metrics) {
    EXPECT_EQ(env.metrics().counter_value("vdce.health.evaluations"),
              health.evaluations());
  }
  // ...without a single heap allocation.
  EXPECT_EQ(allocs, 0u) << "health cadence ticks must not allocate in steady "
                           "state (metrics "
                        << (metrics ? "on" : "off") << ")";
}

TEST(DaemonPlane, HealthTicksAllocateNothingWithMetricsOff) {
  expect_health_ticks_allocate_nothing(false);
}

TEST(DaemonPlane, HealthTicksAllocateNothingWithMetricsOn) {
  expect_health_ticks_allocate_nothing(true);
}

}  // namespace
}  // namespace vdce
