// White-box tests for the runtime daemons, wired by hand (no environment
// façade): the Data Manager's channel/input accounting and execution queue,
// the Group Manager's filter and echo state machines, and RuntimeCore::emit()
// against its event table.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "afg/generate.hpp"
#include "alloc_counter.hpp"
#include "db/site_repository.hpp"
#include "obs/obs.hpp"
#include "runtime/data_manager.hpp"
#include "runtime/events.hpp"
#include "runtime/group_manager.hpp"
#include "runtime/protocol.hpp"
#include "runtime/services.hpp"
#include "sched/support.hpp"
#include "tasklib/registry.hpp"
#include "vdce/testbed.hpp"

namespace vdce::runtime {
namespace {

/// Minimal hand-built runtime: topology, fabric, repositories, core — but
/// no host agents; tests bind handlers themselves.
struct DaemonFixture : ::testing::Test {
  DaemonFixture()
      : topology(make_campus_pair(3)), fabric(engine, topology) {
    tasklib::register_standard_libraries(registry);
    for (const net::Site& site : topology.sites()) {
      auto repo = std::make_unique<db::SiteRepository>(site.id);
      repo->register_site_hosts(topology);
      registry.seed_database(repo->tasks());
      repos.push_back(std::move(repo));
    }
    std::vector<db::SiteRepository*> repo_ptrs;
    for (auto& r : repos) repo_ptrs.push_back(r.get());
    RuntimeOptions options;
    options.exec_noise_cv = 0.0;
    core = std::make_unique<RuntimeCore>(engine, fabric, topology,
                                         std::move(repo_ptrs), store, options);
  }

  common::HostId host(std::size_t site, std::size_t index) {
    return topology.site(common::SiteId(static_cast<std::uint32_t>(site)))
        .hosts[index];
  }

  /// Build a plan for a graph where every task is assigned round-robin to
  /// the given hosts.
  PlanPtr make_plan(const afg::Afg& graph,
                    const std::vector<common::HostId>& hosts,
                    common::HostId origin) {
    auto plan = std::make_shared<ExecutionPlan>();
    plan->app = common::AppId(1);
    plan->origin = origin;
    plan->graph = std::make_shared<const afg::Afg>(graph);
    plan->kernels.resize(graph.task_count());
    for (const afg::TaskNode& node : graph.tasks()) {
      plan->perf.push_back(
          *sched::resolve_perf(node, repos[0]->tasks()));
      common::HostId h = hosts[node.id.value() % hosts.size()];
      sched::Assignment a;
      a.task = node.id;
      a.site = topology.host(h).site;
      a.hosts = {h};
      a.predicted_time = 1.0;
      plan->rat.assignments.push_back(std::move(a));
    }
    return plan;
  }

  sim::Engine engine;
  net::Topology topology;
  net::Fabric fabric;
  tasklib::TaskRegistry registry;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  ObjectStore store;
  std::unique_ptr<RuntimeCore> core;
};

// ---- DataManager --------------------------------------------------------------

TEST_F(DaemonFixture, ChannelSetupCountsDistinctRemotePeers) {
  // Tasks on host A feed consumers on hosts B and C (and one local): the
  // Data Manager must open exactly two channels (one per distinct peer).
  common::HostId a = host(0, 1), b = host(0, 2), c = host(1, 1);
  afg::Afg graph("g");
  afg::TaskProperties one_out;
  one_out.outputs.push_back(afg::FileSpec{"", 1000, false});
  afg::TaskProperties one_in;
  one_in.inputs.resize(1);
  auto t0 = graph.add_task("t0", "synthetic.w100", one_out);
  auto t1 = graph.add_task("t1", "synthetic.w100", one_out);
  auto t2 = graph.add_task("t2", "synthetic.w100", one_out);
  auto c0 = graph.add_task("c0", "synthetic.w100", one_in);
  auto c1 = graph.add_task("c1", "synthetic.w100", one_in);
  auto c2 = graph.add_task("c2", "synthetic.w100", one_in);
  ASSERT_TRUE(graph.connect(*t0, 0, *c0, 0).ok());
  ASSERT_TRUE(graph.connect(*t1, 0, *c1, 0).ok());
  ASSERT_TRUE(graph.connect(*t2, 0, *c2, 0).ok());

  auto plan = std::make_shared<ExecutionPlan>();
  plan->app = common::AppId(1);
  plan->origin = host(0, 0);
  plan->graph = std::make_shared<const afg::Afg>(graph);
  plan->kernels.resize(graph.task_count());
  for (const afg::TaskNode& node : graph.tasks()) {
    plan->perf.push_back(*sched::resolve_perf(node, repos[0]->tasks()));
  }
  auto assign = [&](afg::TaskId task, common::HostId h) {
    plan->rat.assignments.push_back(
        sched::Assignment{task, topology.host(h).site, {h}, 1.0, 0, 0});
  };
  assign(*t0, a);
  assign(*t1, a);
  assign(*t2, a);
  assign(*c0, b);   // remote peer 1
  assign(*c1, b);   // same peer: channel reused
  assign(*c2, c);   // remote peer 2
  // Producers all on A; consumers get their own DM below.

  DataManager dm_a(*core, a), dm_b(*core, b), dm_c(*core, c);
  fabric.bind(a, [&](const net::Message& m) { dm_a.handle(m); });
  fabric.bind(b, [&](const net::Message& m) { dm_b.handle(m); });
  fabric.bind(c, [&](const net::Message& m) { dm_c.handle(m); });

  // Activate the remote DMs first so they can acknowledge setups.
  dm_b.activate(plan, [] {});
  dm_c.activate(plan, [] {});
  bool ready = false;
  dm_a.activate(plan, [&ready] { ready = true; });
  EXPECT_FALSE(ready);  // two setups in flight
  engine.run_until(1.0);
  EXPECT_TRUE(ready);
  EXPECT_EQ(fabric.stats().sent_by_type("dm.setup"), 2u);
  EXPECT_EQ(fabric.stats().sent_by_type("dm.setup_ack"), 2u);
}

TEST_F(DaemonFixture, ReadyFiresImmediatelyWithoutRemoteEdges) {
  common::HostId a = host(0, 1);
  afg::Afg graph = afg::make_independent(3, 100);
  auto plan = make_plan(graph, {a}, host(0, 0));
  DataManager dm(*core, a);
  bool ready = false;
  dm.activate(plan, [&ready] { ready = true; });
  EXPECT_TRUE(ready);  // no channels needed, synchronous
}

TEST_F(DaemonFixture, TasksRunSequentiallyPerHost) {
  common::HostId a = host(0, 1);
  afg::Afg graph = afg::make_independent(3, 500);
  auto plan = make_plan(graph, {a}, host(0, 0));
  DataManager dm(*core, a);
  int done = 0;
  fabric.bind(host(0, 0), [&](const net::Message& m) {
    if (m.type == msg::kAcTaskDone) ++done;
  });
  fabric.bind(a, [&](const net::Message& m) { dm.handle(m); });
  dm.activate(plan, [] {});
  dm.start_app(plan->app);
  // One task at a time: the host load never exceeds background + 1.
  double peak = 0.0;
  while (!engine.empty()) {
    engine.run_steps(1);
    peak = std::max(peak, topology.host(a).state.cpu_load);
  }
  EXPECT_EQ(done, 3);
  EXPECT_NEAR(peak, 1.0, 1e-9);
}

TEST_F(DaemonFixture, DuplicateDeliveryIsIgnored) {
  common::HostId a = host(0, 1);
  afg::Afg graph("g");
  afg::TaskProperties one_in;
  one_in.inputs.resize(1);
  one_in.inputs[0] = afg::FileSpec{"", 0.0, true};  // expects one delivery
  auto t = graph.add_task("t", "synthetic.w100", one_in);
  // Fake a parent edge by adding a producer assigned elsewhere.
  afg::TaskProperties one_out;
  one_out.outputs.push_back(afg::FileSpec{"", 100, false});
  auto p = graph.add_task("p", "synthetic.w100", one_out);
  ASSERT_TRUE(graph.connect(*p, 0, *t, 0).ok());

  // make_plan round-robins tasks to hosts; build the placement explicitly.
  auto mutable_plan =
      std::make_shared<ExecutionPlan>(*make_plan(graph, {a}, host(0, 0)));
  mutable_plan->rat.assignments.clear();
  mutable_plan->rat.assignments.push_back(
      sched::Assignment{*t, common::SiteId(0), {a}, 1.0, 0, 0});
  mutable_plan->rat.assignments.push_back(
      sched::Assignment{*p, common::SiteId(1), {host(1, 1)}, 1.0, 0, 0});
  PlanPtr plan = mutable_plan;

  DataManager dm(*core, a);
  int done = 0;
  fabric.bind(host(0, 0), [&](const net::Message& m) {
    if (m.type == msg::kAcTaskDone) ++done;
  });
  dm.activate(plan, [] {});
  dm.start_app(plan->app);
  engine.run_until(1.0);
  EXPECT_EQ(done, 0);  // waiting for its input

  // Two identical deliveries: the second must not double-start anything.
  net::Message delivery{host(1, 1), a, msg::kDmData, 100,
                        DataDelivery{plan->app, *t, 0, {}}};
  dm.handle(delivery);
  dm.handle(delivery);
  engine.run();
  EXPECT_EQ(done, 1);
}

TEST_F(DaemonFixture, SuspendHoldsQueueUntilResume) {
  common::HostId a = host(0, 1);
  afg::Afg graph = afg::make_independent(1, 500);
  auto plan = make_plan(graph, {a}, host(0, 0));
  DataManager dm(*core, a);
  int done = 0;
  fabric.bind(host(0, 0), [&](const net::Message& m) {
    if (m.type == msg::kAcTaskDone) ++done;
  });
  dm.activate(plan, [] {});
  dm.suspend(plan->app);
  dm.start_app(plan->app);
  engine.run_until(60.0);
  EXPECT_EQ(done, 0);  // suspended before anything started
  dm.resume(plan->app);
  engine.run();
  EXPECT_EQ(done, 1);
}

TEST_F(DaemonFixture, AbortReleasesLoadAndReportsOrigin) {
  common::HostId a = host(0, 1);
  afg::Afg graph = afg::make_independent(1, 5000);
  auto plan = make_plan(graph, {a}, host(0, 0));
  DataManager dm(*core, a);
  dm.activate(plan, [] {});
  dm.start_app(plan->app);
  engine.run_steps(1);  // let the first quantum begin
  EXPECT_NEAR(topology.host(a).state.cpu_load, 1.0, 1e-9);

  auto aborted = dm.abort_running();
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0].app, plan->app);
  EXPECT_EQ(aborted[0].origin, host(0, 0));
  EXPECT_NEAR(topology.host(a).state.cpu_load, 0.0, 1e-9);
  EXPECT_EQ(topology.host(a).state.running_tasks, 0);
}

TEST_F(DaemonFixture, PinnedTaskSurvivesAbort) {
  common::HostId a = host(0, 1);
  afg::Afg graph = afg::make_independent(1, 5000);
  auto plan = make_plan(graph, {a}, host(0, 0));
  DataManager dm(*core, a);
  dm.activate(plan, [] {}, common::TaskId(0));  // pinned
  dm.start_app(plan->app);
  engine.run_steps(1);
  EXPECT_TRUE(dm.abort_running().empty());  // unkillable
}

// ---- GroupManager -------------------------------------------------------------

TEST_F(DaemonFixture, FilterForwardsOnlySignificantChanges) {
  common::HostId leader = host(0, 0);
  GroupManager gm(*core, topology.host(host(0, 1)).group, leader, leader);

  auto report = [&](common::HostId h, double load) {
    MonReport r;
    r.host = h;
    r.sample = db::WorkloadSample{engine.now(), load, 100.0};
    gm.handle(net::Message{h, leader, msg::kMonReport, 160, r});
  };
  // Default threshold is 0.15.
  report(host(0, 1), 0.50);  // first: forwarded
  report(host(0, 1), 0.55);  // +0.05: filtered
  report(host(0, 1), 0.70);  // +0.20 vs last forwarded: forwarded
  report(host(0, 1), 0.60);  // -0.10: filtered
  EXPECT_EQ(gm.reports_received(), 4u);
  EXPECT_EQ(gm.reports_forwarded(), 2u);
  EXPECT_EQ(fabric.stats().sent_by_type("gm.report"), 2u);
}

TEST_F(DaemonFixture, EchoRoundDetectsSilentMember) {
  common::HostId leader = host(0, 0);
  common::GroupId group = topology.host(leader).group;
  GroupManager gm(*core, group, leader, leader);

  int down_notices = 0;
  // The site server == leader here; capture gm.host_down at the leader.
  fabric.bind(leader, [&](const net::Message& m) {
    if (m.type == msg::kGmHostDown) ++down_notices;
    if (m.type == msg::kGmEchoReply || m.type == msg::kMonReport) {
      gm.handle(m);
    }
  });
  // Members answer echoes themselves... except the victim, which is down.
  common::HostId victim;
  for (common::HostId member : topology.group(group).members) {
    if (member == leader) continue;
    if (!victim.valid()) {
      victim = member;
      topology.set_host_up(member, false);
      continue;
    }
    fabric.bind(member, [&, member](const net::Message& m) {
      if (m.type == msg::kGmEcho) {
        const auto& echo = m.payload.get<EchoPacket>();
        (void)fabric.send(net::Message{member, echo.leader, msg::kGmEchoReply,
                                       64, EchoPacket{member, echo.seq}});
      }
    });
  }

  gm.start();
  engine.run_until(3.0 * core->options().echo_period);
  gm.stop();
  EXPECT_EQ(down_notices, 1);  // the victim, reported exactly once
}

// ---- RuntimeCore::emit -------------------------------------------------------

/// One event of every kind, every field set: the table decides what lands.
std::array<RuntimeEvent, kRuntimeEventKinds> every_kind() {
  std::array<RuntimeEvent, kRuntimeEventKinds> events;
  for (std::size_t k = 0; k < kRuntimeEventKinds; ++k) {
    events[k] = {.kind = static_cast<RuntimeEventKind>(k),
                 .track = 2,
                 .host = 3,
                 .site = 0,
                 .app = 4,
                 .task = 5,
                 .n = 6,
                 .m = 7,
                 .v = 2.5,
                 .label = "a-label-longer-than-any-small-string-buffer"};
  }
  return events;
}

TEST_F(DaemonFixture, EmitWithSinksOffAllocatesNothingAndFillsOnlyTheRing) {
  obs::Observability obs;  // metrics, trace and health off; flight on
  core->set_observability(&obs);
  const auto events = every_kind();
  const std::uint64_t before = test::allocation_count();
  for (const RuntimeEvent& e : events) core->emit(e);
  EXPECT_EQ(test::allocation_count() - before, 0u);

  std::uint64_t flights = 0;
  for (const RuntimeEventRow& r : kRuntimeEvents) flights += r.flight ? 1 : 0;
  EXPECT_EQ(obs.flight().total(), flights);
  EXPECT_TRUE(obs.metrics().empty());
  EXPECT_EQ(obs.trace().size(), 0u);
  EXPECT_EQ(obs.health().series_count(), 0u);
}

TEST_F(DaemonFixture, EmitLandsOnceInEachSinkItsRowNames) {
  for (const RuntimeEvent& e : every_kind()) {
    const RuntimeEventRow& r = kRuntimeEvents[static_cast<std::size_t>(e.kind)];
    SCOPED_TRACE(r.counter);
    obs::health::HealthOptions health;
    health.enabled = true;
    health.default_rules = false;
    obs::Observability obs(obs::MetricsOptions{.enabled = true},
                           obs::TraceOptions{.enabled = true}, {}, health);
    core->set_observability(&obs);
    core->emit(e);

    const auto flight = obs.flight().snapshot();
    ASSERT_EQ(flight.size(), r.flight ? 1u : 0u);
    if (r.flight) {
      EXPECT_EQ(flight.front().code, *r.flight);
    }

    // The plane's own vdce.health.* counters aside, one counter at 1.
    std::size_t counters = 0;
    for (const auto& [name, counter] : obs.metrics().counters()) {
      if (name.starts_with("vdce.health.")) continue;
      ++counters;
      EXPECT_EQ(name, r.counter);
      EXPECT_EQ(counter.value(), 1u);
    }
    EXPECT_EQ(counters, 1u);

    ASSERT_EQ(obs.health().series_count(), r.health ? 1u : 0u);
    if (r.health) {
      const obs::health::TimeSeries& ts = *obs.health().all_series().front();
      EXPECT_EQ(ts.key().metric, r.health);
      EXPECT_EQ(ts.last(), 1.0);
    }

    // The kind's instant, once, after the health.series record of its
    // first use.
    std::size_t instants = 0;
    std::size_t instant_at = 0;
    std::size_t series_at = obs.trace().size();
    for (std::size_t i = 0; i < obs.trace().size(); ++i) {
      const obs::TraceEvent& event = obs.trace().events()[i];
      if (event.name == "health.series") {
        series_at = std::min(series_at, i);
      } else if (event.category != "health") {
        ++instants;
        instant_at = i;
        EXPECT_EQ(event.name, r.name != nullptr ? r.name : "");
      }
    }
    EXPECT_EQ(instants, r.name ? 1u : 0u);
    if (r.name && r.health) {
      EXPECT_LT(series_at, instant_at);
    }
    core->set_observability(nullptr);
  }
}

TEST(Runtime, EventTableIsDocumented) {
  std::ifstream in(VDCE_OBSERVABILITY_DOC);
  ASSERT_TRUE(in) << VDCE_OBSERVABILITY_DOC;
  std::ostringstream doc;
  doc << in.rdbuf();
  auto documented = [&doc](const char* name) {
    return doc.str().find("`" + std::string(name) + "`") != std::string::npos;
  };
  for (const RuntimeEventRow& r : kRuntimeEvents) {
    EXPECT_TRUE(documented(r.counter)) << r.counter;
    EXPECT_TRUE(!r.health || documented(r.health)) << r.health;
    EXPECT_TRUE(!r.name || documented(r.name)) << r.name;
  }
}

}  // namespace
}  // namespace vdce::runtime
