// vdce::chaos — deterministic fault injection and the hardened recovery
// paths it exercises: plan round-trips, arm-time validation, byte-identical
// fault/recovery traces across identical-seed runs, and applications that
// complete through crashes, partitions, message loss, and stale monitors.
#include <gtest/gtest.h>

#include <string>

#include "afg/generate.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/strings.hpp"
#include "editor/builder.hpp"
#include "runtime/data_manager.hpp"
#include "sched/strategy.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

EnvironmentOptions chaos_options(chaos::FaultPlan plan) {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.echo_period = 0.5;
  options.runtime.progress_period = 1.0;
  options.trace.enabled = true;
  options.metrics.enabled = true;
  options.faults = std::move(plan);
  return options;
}

/// First host of `site` that is not its server machine (probes to it land
/// in an agent with no Site Manager, so unknown types are ignored).
common::HostId non_server_host(VdceEnvironment& env, common::SiteId site) {
  const net::Site& s = env.topology().site(site);
  for (common::HostId h : s.hosts) {
    if (h != s.server) return h;
  }
  return s.hosts.front();
}

Session login(VdceEnvironment& env) {
  EXPECT_TRUE(env.try_add_user("u", "p").ok());
  return env.login(common::SiteId(0), "u", "p").value();
}

/// The determinism artifact: every chaos.* / recovery.* trace instant,
/// rendered in recording order.
std::string fault_recovery_trace(VdceEnvironment& env) {
  std::string out;
  for (const obs::TraceEvent& event : env.trace().events()) {
    if (event.category != "chaos" && event.category != "recovery") continue;
    out += event.name;
    out += " t=";
    out += common::format_double(event.start, 4);
    for (const obs::TraceArg& a : event.args) {
      out += ' ';
      out += a.key;
      out += '=';
      out += a.value;
    }
    out += '\n';
  }
  return out;
}

// --- FaultPlan: builder, text format, validation ---------------------------

TEST(FaultPlan, WriteParseRoundTrip) {
  chaos::FaultPlan plan;
  plan.name("campus-meltdown")
      .seed(42)
      .crash(common::HostId(3), 5.0, 10.0)
      .crash("lynx2.site1.vdce.edu", 8.0)
      .degrade(0, 1, 10.0, 5.0, 4.0, 0.25)
      .partition(0, 1, 20.0, 4.0)
      .loss(0.25, 2.0, 6.0, "dm.", 0)
      .slow(common::HostId(4), 3.0, 5.0, 2.0)
      .stale_host(common::HostId(4), 3.0, 5.0)
      .stale_site(1, 6.0, 8.0);
  ASSERT_TRUE(plan.validate().ok());

  std::string text = plan.write();
  auto parsed = chaos::FaultPlan::parse(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->name(), "campus-meltdown");
  EXPECT_EQ(parsed->seed(), 42u);
  EXPECT_EQ(parsed->size(), plan.size());
  EXPECT_EQ(parsed->write(), text);  // canonical form is a fixed point
}

TEST(FaultPlan, ParseErrorNamesTheLine) {
  auto plan = chaos::FaultPlan::parse("faultplan \"p\"\nexplode host 3 at 1.0\n");
  ASSERT_FALSE(plan.has_value());
  EXPECT_NE(plan.error().message.find("line 2"), std::string::npos)
      << plan.error().message;
}

TEST(FaultPlan, BuilderValidatesEagerly) {
  chaos::FaultPlan plan;
  plan.loss(1.7, 1.0, 5.0);  // rate outside [0, 1]
  common::Status status = plan.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::ErrorCode::kInvalidArgument);
}

// --- arming against an environment -----------------------------------------

TEST(Chaos, BringUpRejectsPlanWithUnknownHost) {
  chaos::FaultPlan plan;
  plan.crash("no-such-machine.nowhere.edu", 1.0);
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  common::Status status = env.try_bring_up();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::ErrorCode::kNotFound);
  EXPECT_NE(status.error().message.find("no-such-machine.nowhere.edu"),
            std::string::npos)
      << status.error().message;
  EXPECT_EQ(env.chaos(), nullptr);
}

TEST(Chaos, TryBringUpRejectsRepeatedCall) {
  VdceEnvironment env(make_campus_pair(13));
  ASSERT_TRUE(env.try_bring_up().ok());
  common::Status again = env.try_bring_up();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, common::ErrorCode::kInvalidArgument);
}

TEST(Chaos, RunApplicationNamesTheUnknownTask) {
  VdceEnvironment env(make_campus_pair(13));
  ASSERT_TRUE(env.try_bring_up().ok());
  Session session = login(env);

  editor::AppBuilder builder("typo");
  auto ok = builder.task("Step1", "matrix.lu_decomposition").output_data(1e4);
  auto bad = builder.task("Step2", "matrix.does_not_exist");
  ASSERT_TRUE(builder.link(ok, bad).has_value());
  afg::Afg graph = builder.build().value();

  auto report = env.run_application(graph, session);
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code, common::ErrorCode::kNotFound);
  EXPECT_NE(report.error().message.find("matrix.does_not_exist"),
            std::string::npos)
      << report.error().message;
  EXPECT_NE(report.error().message.find("Step2"), std::string::npos)
      << report.error().message;
}

// --- fault mechanics (fabric-level, no application needed) ------------------

TEST(Chaos, PartitionDropsCrossSiteTrafficThenHeals) {
  chaos::FaultPlan plan;
  plan.name("split").partition(0, 1, 1.0, 2.0);
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  common::HostId a = non_server_host(env, common::SiteId(0));
  common::HostId b = non_server_host(env, common::SiteId(1));

  // Unknown "x.*" probes are ignored by the receiving agent; we watch the
  // fabric's injected-drop counter instead of delivery.
  auto probe = [&] {
    (void)env.fabric().send({a, b, net::MsgType("x.probe"), 64, {}});
  };
  env.engine().schedule(0.5, probe);   // before the window
  env.engine().schedule(2.0, probe);   // inside: dropped
  env.engine().schedule(4.0, probe);   // healed
  env.run_for(6.0);

  EXPECT_EQ(env.fabric().stats().dropped_injected, 1u);
  EXPECT_EQ(env.chaos()->messages_dropped(), 1u);
  std::string log = env.chaos()->log_text();
  EXPECT_NE(log.find("partition"), std::string::npos) << log;
  EXPECT_NE(log.find("healed"), std::string::npos) << log;
}

// Every strategy row plans from the bids Fig. 2 gathered: while a partition
// drops site 1's bid, no row places work there.  vdce-level is the control;
// dbc-time gets a budget and dbc-cost a deadline, so both take the
// constrained planner instead of delegating to the VDCE assignment.
TEST(Chaos, PartitionedSiteGetsNoWorkFromAnyRow) {
  chaos::FaultPlan plan;
  plan.partition(0, 1, 1.0, 60.0);
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  Session session = login(env);
  env.run_for(2.0);  // inside the partition
  const afg::Afg graph = afg::make_independent(12, 4000);
  for (const sched::Strategy& row : sched::strategies()) {
    const std::string name(row.name);
    SCOPED_TRACE(name);
    sched::SchedulingPolicy policy;
    policy.strategy = name;
    if (name == "dbc-time") policy.budget = 1e6;
    if (name == "dbc-cost") policy.deadline = 1e6;
    auto table = env.schedule(graph, session, policy);
    ASSERT_TRUE(table.has_value()) << table.error().to_string();
    EXPECT_EQ(table->scheduler_name, name);
    std::size_t remote = 0;
    for (const sched::Assignment& a : table->assignments) {
      if (a.site != common::SiteId(0)) ++remote;
    }
    EXPECT_EQ(remote, 0u) << remote << " of " << graph.task_count()
                          << " tasks on the unreachable site";
  }
}

TEST(Chaos, LossFiltersByTypePrefix) {
  chaos::FaultPlan plan;
  plan.loss(1.0, 1.0, 2.0, "x.");  // certain drop, but only "x.*" messages
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  common::HostId a = non_server_host(env, common::SiteId(0));
  common::HostId b = non_server_host(env, common::SiteId(1));

  env.engine().schedule(1.5, [&] {
    (void)env.fabric().send({a, b, net::MsgType("x.probe"), 64, {}});
    (void)env.fabric().send({a, b, net::MsgType("y.probe"), 64, {}});
  });
  env.run_for(4.0);

  // Only the "x.*" message matched the filter (and rate 1.0 made the drop
  // certain).
  EXPECT_EQ(env.fabric().stats().dropped_injected, 1u);
  EXPECT_EQ(env.chaos()->messages_dropped(), 1u);
}

TEST(Chaos, StaleWindowMutesMonitorSamples) {
  chaos::FaultPlan plan;
  plan.stale_site(0, 1.0, 5.0);
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(10.0);
  EXPECT_GT(env.metrics().counter("monitor.samples_muted").value(), 0u);
  // The window ended: fresh samples flow again, nobody was marked down.
  for (const net::Host& h : env.topology().hosts()) {
    auto rec = env.repo(h.site).resources().find(h.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(rec->up);
  }
}

TEST(Chaos, OverlappingStaleWindowsNest) {
  // One host inside two stale windows: its own [1, 4) and its site's
  // [2, 7).  The first window ending must not unmute it while the second is
  // still open.
  net::Topology topology = make_campus_pair(13);
  const common::SiteId site(0);
  const common::HostId host = topology.site(site).hosts[1];
  chaos::FaultPlan plan;
  plan.stale_host(host, 1.0, 3.0).stale_site(0, 2.0, 5.0);
  EnvironmentOptions options = chaos_options(std::move(plan));
  options.runtime.significant_change = 0.0;  // forward every sample
  VdceEnvironment env(std::move(topology), std::move(options));
  ASSERT_TRUE(env.try_bring_up().ok());
  auto newest_sample = [&] {
    auto rec = env.repo(site).resources().find(host);
    EXPECT_TRUE(rec.has_value() && !rec->workload_history.empty());
    return rec->workload_history.back().time;
  };

  env.run_for(3.5);
  const common::SimTime before = newest_sample();
  EXPECT_LT(before, 1.0);
  env.run_for(3.0);  // t = 6.5: the host window closed at 4, the site's is open
  EXPECT_EQ(newest_sample(), before);
  env.run_for(2.5);  // t = 9: both windows closed
  EXPECT_GT(newest_sample(), 7.0);
}

// --- recovery through injected faults --------------------------------------

/// A two-stage pinned chain on named machines, so the crash victim is known
/// before the plan is armed.
afg::Afg make_pinned_chain(const std::string& host_a,
                           const std::string& host_b) {
  editor::AppBuilder builder("pinned-chain");
  auto s0 = builder.task("s0", "synthetic.w2000")
                .prefer_machine(host_a)
                .output_data(1e5);
  auto s1 = builder.task("s1", "synthetic.w2000").prefer_machine(host_b);
  EXPECT_TRUE(builder.link(s0, s1).has_value());
  return builder.build().value();
}

TEST(Chaos, CrashMidTaskRecoversAndRecordsTheOutcome) {
  net::Topology topology = make_campus_pair(13);
  const net::Site& site0 = topology.site(common::SiteId(0));
  std::string host_a = topology.host(site0.hosts[1]).spec.name;
  std::string host_b = topology.host(site0.hosts[2]).spec.name;

  chaos::FaultPlan plan;
  plan.name("mid-task-crash").crash(host_a, 1.5);  // s0 is running at 1.5
  VdceEnvironment env(std::move(topology), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  Session session = login(env);

  afg::Afg graph = make_pinned_chain(host_a, host_b);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  ASSERT_TRUE(report->success) << report->failure_reason;
  EXPECT_GE(report->failures_survived, 1);

  // The per-fault recovery outcome is in the report: the crashed host's
  // task moved, with the detection time and the new machine recorded.
  ASSERT_FALSE(report->recoveries.empty());
  bool found = false;
  for (const runtime::RecoveryEvent& r : report->recoveries) {
    if (r.reason != "host_down") continue;
    found = true;
    EXPECT_EQ(env.topology().host(r.from_host).spec.name, host_a);
    EXPECT_NE(r.to_host, r.from_host);
    EXPECT_GE(r.detected_at, 1.5);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(env.chaos()->log_text().find("crash"), std::string::npos);
}

TEST(Chaos, SetupMessageLossRecoversViaRetries) {
  // 60% of dm.* traffic vanishes during channel setup; the retry-with-
  // backoff path and the coordinator's stall sweep must still complete the
  // run.
  chaos::FaultPlan plan;
  plan.name("lossy-setup").seed(7).loss(0.6, 0.0, 4.0, "dm.");
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  Session session = login(env);

  afg::Afg graph = afg::make_chain(3, 500, 1e4);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  ASSERT_TRUE(report->success) << report->failure_reason;
  EXPECT_GT(env.chaos()->messages_dropped(), 0u);
}

TEST(Chaos, ChannelSetupAbandonsAnUnreachablePeerAfterMaxRetries) {
  // Every channel-setup message is lost for the whole run, so the producer
  // host never hears back from its consumer.  It resends kChannelMaxRetries
  // times, then abandons the peer and reports ready; the data itself still
  // flows and the run completes.
  net::Topology topology = make_campus_pair(13);
  const net::Site& site0 = topology.site(common::SiteId(0));
  std::string host_a = topology.host(site0.hosts[1]).spec.name;
  std::string host_b = topology.host(site0.hosts[2]).spec.name;

  chaos::FaultPlan plan;
  plan.name("setup-cut").loss(1.0, 0.0, 1e5, "dm.setup");
  VdceEnvironment env(std::move(topology), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  Session session = login(env);

  afg::Afg graph = make_pinned_chain(host_a, host_b);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_TRUE(report->success) << report->failure_reason;

  // One producer -> consumer channel: the first send plus every resend was
  // dropped, and the peer was abandoned exactly once.
  EXPECT_EQ(env.metrics().counter_value("recovery.channel_abandoned"), 1u);
  EXPECT_EQ(env.metrics().counter_value("recovery.channel_retries"),
            static_cast<std::uint64_t>(runtime::kChannelMaxRetries));
  EXPECT_EQ(env.chaos()->messages_dropped(),
            static_cast<std::uint64_t>(runtime::kChannelMaxRetries + 1));
}

TEST(Chaos, DegradedLinksSlowButDoNotBreakExecution) {
  chaos::FaultPlan plan;
  plan.degrade(0, 1, 0.0, 1e6, 8.0, 0.1);  // WAN 8x latency, 10% bandwidth
  VdceEnvironment env(make_campus_pair(13), chaos_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  Session session = login(env);

  afg::Afg graph = afg::make_fork_join(3, 2, 500, 1e5);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_TRUE(report->success) << report->failure_reason;
}

// --- the acceptance criterion: byte-identical traces ------------------------

struct TraceArtifacts {
  std::string injector_log;
  std::string trace_text;
  std::string report_text;
};

TraceArtifacts run_chaotic_workload(std::uint64_t seed) {
  chaos::FaultPlan plan;
  plan.name("determinism")
      .seed(seed)
      .crash(common::HostId(2), 2.0, 6.0)
      .loss(0.3, 0.5, 5.0, "dm.")
      .degrade(0, 1, 1.0, 10.0, 3.0, 0.5)
      .stale_site(1, 2.0, 4.0)
      .slow(common::HostId(4), 1.0, 6.0, 2.0);
  EnvironmentOptions options = chaos_options(std::move(plan));
  options.runtime.seed = 99;
  VdceEnvironment env(make_campus_pair(13), options);
  EXPECT_TRUE(env.try_bring_up().ok());
  Session session = login(env);

  afg::Afg graph = afg::make_fork_join(3, 2, 800, 1e5);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  EXPECT_TRUE(report.has_value());
  env.run_for(5.0);

  TraceArtifacts artifacts;
  artifacts.injector_log = env.chaos()->log_text();
  artifacts.trace_text = fault_recovery_trace(env);
  if (report.has_value()) artifacts.report_text = report->describe(graph);
  return artifacts;
}

TEST(Chaos, IdenticalSeedsProduceByteIdenticalFaultAndRecoveryTraces) {
  TraceArtifacts first = run_chaotic_workload(21);
  TraceArtifacts second = run_chaotic_workload(21);
  ASSERT_FALSE(first.injector_log.empty());
  EXPECT_EQ(first.injector_log, second.injector_log);
  EXPECT_EQ(first.trace_text, second.trace_text);
  EXPECT_EQ(first.report_text, second.report_text);
}

TEST(Chaos, DifferentSeedsChangeTheDropPattern) {
  // Same plan shape, different seed: the loss windows draw differently.
  // (The *schedule* of planned faults is seed-independent; the stochastic
  // part is which messages die.)
  TraceArtifacts first = run_chaotic_workload(21);
  TraceArtifacts second = run_chaotic_workload(22);
  EXPECT_NE(first.trace_text, second.trace_text);
}

}  // namespace
}  // namespace vdce
