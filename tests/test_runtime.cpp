// Runtime tests: the Fig. 4 monitoring pipeline (monitor -> group manager ->
// site manager), echo-based failure detection, and the services.
#include <gtest/gtest.h>

#include "runtime/services.hpp"
#include "tasklib/matrix.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce::runtime {
namespace {

EnvironmentOptions quiet_options() {
  EnvironmentOptions options;
  options.runtime.monitor_period = 1.0;
  options.runtime.echo_period = 2.0;
  options.runtime.significant_change = 0.15;
  return options;
}

TEST(Monitoring, WorkloadReachesResourceDb) {
  VdceEnvironment env(make_campus_pair(), quiet_options());
  env.bring_up();
  common::HostId h = env.topology().site(common::SiteId(0)).hosts[2];
  env.topology().set_cpu_load(h, 1.7);
  env.run_for(5.0);
  auto rec = env.repo(common::SiteId(0)).resources().find(h);
  ASSERT_TRUE(rec.has_value());
  EXPECT_FALSE(rec->workload_history.empty());
  EXPECT_NEAR(rec->current_load(), 1.7, 0.2);
}

TEST(Monitoring, SignificantChangeFilterSuppressesStableLoads) {
  auto options = quiet_options();
  options.runtime.measurement_noise = 0.0;  // perfectly stable samples
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  env.run_for(30.0);
  const net::FabricStats& stats = env.fabric().stats();
  ASSERT_TRUE(stats.sent_by_type("mon.report") > 0);
  ASSERT_TRUE(stats.sent_by_type("gm.report") > 0);
  // With constant loads only the first report per host is significant.
  EXPECT_GT(stats.sent_by_type("mon.report"),
            10 * stats.sent_by_type("gm.report"));
}

TEST(Monitoring, ZeroThresholdForwardsEverything) {
  auto options = quiet_options();
  options.runtime.significant_change = 0.0;
  options.runtime.measurement_noise = 0.01;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  env.run_for(20.0);
  const net::FabricStats& stats = env.fabric().stats();
  // Every monitor report with any noise at all is "significant".
  EXPECT_GE(stats.sent_by_type("gm.report"),
            stats.sent_by_type("mon.report") / 2);
}

TEST(FailureDetection, EchoTimeoutMarksHostDown) {
  VdceEnvironment env(make_campus_pair(), quiet_options());
  env.bring_up();
  env.run_for(5.0);
  // Pick a non-leader, non-server machine and kill it.
  common::HostId victim = env.topology().site(common::SiteId(0)).hosts[1];
  env.topology().set_host_up(victim, false);
  env.run_for(10.0);  // a few echo rounds
  auto rec = env.repo(common::SiteId(0)).resources().find(victim);
  ASSERT_TRUE(rec.has_value());
  EXPECT_FALSE(rec->up);
}

TEST(FailureDetection, DetectionLatencyWithinTwoEchoPeriods) {
  auto options = quiet_options();
  options.runtime.echo_period = 1.0;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  env.run_for(3.0);
  common::HostId victim = env.topology().site(common::SiteId(0)).hosts[1];
  env.topology().set_host_up(victim, false);
  double killed_at = env.now();
  // Step until the db notices.
  double detected_at = -1.0;
  for (int i = 0; i < 100 && detected_at < 0; ++i) {
    env.run_for(0.25);
    auto rec = env.repo(common::SiteId(0)).resources().find(victim);
    if (rec && !rec->up) detected_at = env.now();
  }
  ASSERT_GT(detected_at, 0.0);
  EXPECT_LE(detected_at - killed_at, 2.5 * options.runtime.echo_period);
}

TEST(FailureDetection, RecoveryMarksHostBackUp) {
  VdceEnvironment env(make_campus_pair(), quiet_options());
  env.bring_up();
  common::HostId victim = env.topology().site(common::SiteId(0)).hosts[1];
  env.topology().set_host_up(victim, false);
  env.run_for(10.0);
  ASSERT_FALSE(env.repo(common::SiteId(0)).resources().find(victim)->up);
  env.topology().set_host_up(victim, true);
  // Nudge the load so the next monitor report passes the change filter.
  env.topology().set_cpu_load(victim, 1.0);
  env.run_for(10.0);
  EXPECT_TRUE(env.repo(common::SiteId(0)).resources().find(victim)->up);
}

TEST(FailureDetection, HostDownBroadcastReachesPeerSites) {
  VdceEnvironment env(make_campus_pair(), quiet_options());
  env.bring_up();
  common::HostId victim = env.topology().site(common::SiteId(0)).hosts[1];
  env.topology().set_host_up(victim, false);
  env.run_for(10.0);
  EXPECT_GE(env.fabric().stats().sent_by_type("sm.host_down"), 1u);
}

// ---- services -----------------------------------------------------------------

TEST(ObjectStore, PutGet) {
  ObjectStore store;
  store.put("/users/VDCE/u/m.dat", tasklib::Value(42), 1000);
  auto obj = store.get("/users/VDCE/u/m.dat");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(std::any_cast<int>(obj->value), 42);
  EXPECT_DOUBLE_EQ(obj->size_bytes, 1000.0);
  EXPECT_FALSE(store.get("/nope").has_value());
}

TEST(ObjectStore, UrlDetection) {
  EXPECT_TRUE(ObjectStore::is_url("http://data.example/x"));
  EXPECT_TRUE(ObjectStore::is_url("https://data.example/x"));
  EXPECT_FALSE(ObjectStore::is_url("/users/VDCE/x"));
}

TEST(Visualization, CollectsWorkloadSamples) {
  VdceEnvironment env(make_campus_pair(), quiet_options());
  env.bring_up();
  VisualizationService viz(env.core());
  viz.start(0.5);
  env.topology().set_cpu_load(env.topology().site(common::SiteId(0)).hosts[0],
                              2.0);
  env.run_for(5.0);
  viz.stop();
  EXPECT_GE(viz.samples().size(), 9u);
  std::string rendered = viz.render_workload();
  EXPECT_NE(rendered.find("host 0"), std::string::npos);
}

TEST(Visualization, EmptyRender) {
  VdceEnvironment env(make_campus_pair(), quiet_options());
  env.bring_up();
  VisualizationService viz(env.core());
  EXPECT_EQ(viz.render_workload(), "(no workload samples)\n");
}

// ---- background load generator ---------------------------------------------------

TEST(LoadGenerator, PerturbsLoadsAroundMean) {
  auto options = quiet_options();
  options.background_load = true;
  options.load.mean_load = 0.5;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  env.run_for(60.0);
  double total = 0.0;
  for (const net::Host& h : env.topology().hosts()) {
    EXPECT_GE(h.state.cpu_load, 0.0);
    total += h.state.cpu_load;
  }
  double mean = total / static_cast<double>(env.topology().host_count());
  EXPECT_NEAR(mean, 0.5, 0.35);
}

TEST(LoadGenerator, SpikeDecays) {
  auto options = quiet_options();
  options.background_load = true;
  options.load.volatility = 0.0;
  options.load.reversion = 0.0;
  options.load.mean_load = 0.0;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  common::HostId h = env.topology().site(common::SiteId(0)).hosts[0];
  double before = env.topology().host(h).state.cpu_load;
  env.background().inject_spike(h, 3.0, 5.0);
  EXPECT_NEAR(env.topology().host(h).state.cpu_load, before + 3.0, 1e-9);
  env.run_for(6.0);
  EXPECT_NEAR(env.topology().host(h).state.cpu_load, before, 1e-9);
}

}  // namespace
}  // namespace vdce::runtime
