// Recovery-path integration tests: value integrity across reschedules,
// file-input restaging, suspension during setup, protocol coexistence,
// re-placement inside the application's access domain, and the launch
// barrier after a pre-launch re-placement.
#include <gtest/gtest.h>

#include "afg/generate.hpp"
#include "chaos/fault_plan.hpp"
#include "editor/builder.hpp"
#include "runtime/site_manager.hpp"
#include "tasklib/matrix.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

EnvironmentOptions recovery_options() {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.echo_period = 0.5;
  options.runtime.progress_period = 1.0;
  return options;
}

Session login(VdceEnvironment& env) {
  env.add_user("u", "p");
  return env.login(common::SiteId(0), "u", "p").value();
}

/// Build the Figure-1 solver with real kernels and staged inputs; returns
/// the graph plus the ground truth for verification.
struct SolverApp {
  afg::Afg graph;
  tasklib::Matrix a;
  tasklib::Vector b;
};

SolverApp make_solver(VdceEnvironment& env, std::size_t n) {
  common::Rng rng(17);
  SolverApp app{afg::Afg{}, tasklib::Matrix::random_diag_dominant(n, rng), {}};
  app.b.assign(n, 0.0);
  for (double& v : app.b) v = rng.uniform(-2, 2);
  env.store().put("/u/A.dat", tasklib::Value(app.a), app.a.size_bytes());
  env.store().put("/u/b.dat", tasklib::Value(app.b),
                  static_cast<double>(n * sizeof(double)));

  editor::AppBuilder builder("solver");
  auto lu = builder.task("LU", "matrix.lu_decomposition")
                .input_file("/u/A.dat", app.a.size_bytes())
                .output_data(app.a.size_bytes());
  auto fwd = builder.task("Fwd", "matrix.forward_substitution")
                 .output_data(app.a.size_bytes());
  auto bwd = builder.task("Bwd", "matrix.backward_substitution")
                 .output_data(static_cast<double>(n * sizeof(double)));
  EXPECT_TRUE(builder.link(lu, fwd).has_value());
  fwd.input_file("/u/b.dat", static_cast<double>(n * sizeof(double)));
  EXPECT_TRUE(builder.link(fwd, bwd).has_value());
  app.graph = builder.build().value();
  return app;
}

TEST(Recovery, RealKernelAnswerSurvivesHostFailure) {
  // The LU host dies mid-execution; the rescheduled pipeline must still
  // produce the numerically correct x — proving the coordinator re-stages
  // file inputs and re-pulls dataflow values correctly.
  VdceEnvironment env(make_campus_pair(13), recovery_options());
  env.bring_up();
  auto session = login(env);
  SolverApp solver = make_solver(env, 48);  // LU ~ seconds of sim time

  auto table = env.schedule(solver.graph, session);
  ASSERT_TRUE(table.has_value());
  common::HostId victim =
      table->find(solver.graph.find_task("LU").value())->primary_host();
  if (victim == env.topology().site(common::SiteId(0)).server) {
    GTEST_SKIP() << "LU landed on the coordinator host";
  }
  env.engine().schedule(1.0, [&] { env.topology().set_host_up(victim, false); });

  auto report = env.execute_with_table(solver.graph, *table, session, {});
  ASSERT_TRUE(report.has_value()) << report.error().message;
  ASSERT_TRUE(report->success) << report->failure_reason;
  EXPECT_GE(report->failures_survived, 1);

  auto x = std::any_cast<tasklib::Vector>(report->exit_outputs.at(
      solver.graph.find_task("Bwd")->value()));
  EXPECT_LT(tasklib::residual_inf(solver.a, x, solver.b), 1e-8);
}

TEST(Recovery, DownstreamFailureTriggersResendFromFinishedParent) {
  // Kill the host of a *later* stage after the first stage completed: the
  // parent's cached output must be re-sent to the new machine.  Stage
  // placement is pinned via the editor's preferred-machine property so the
  // stages are guaranteed to sit on distinct, non-server machines.
  VdceEnvironment env(make_campus_pair(13), recovery_options());
  env.bring_up();
  auto session = login(env);

  const net::Site& site0 = env.topology().site(common::SiteId(0));
  std::string host_a = env.topology().host(site0.hosts[1]).spec.name;
  std::string host_b = env.topology().host(site0.hosts[2]).spec.name;

  common::Rng rng(17);
  const std::size_t n = 48;
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  tasklib::Vector b(n);
  for (double& v : b) v = rng.uniform(-2, 2);
  env.store().put("/u/A.dat", tasklib::Value(a), a.size_bytes());
  env.store().put("/u/b.dat", tasklib::Value(b),
                  static_cast<double>(n * sizeof(double)));

  editor::AppBuilder builder("pinned-solver");
  auto lu = builder.task("LU", "matrix.lu_decomposition")
                .prefer_machine(host_a)
                .input_file("/u/A.dat", a.size_bytes())
                .output_data(a.size_bytes());
  auto fwd = builder.task("Fwd", "matrix.forward_substitution")
                 .prefer_machine(host_b)
                 .output_data(a.size_bytes());
  auto bwd = builder.task("Bwd", "matrix.backward_substitution")
                 .prefer_machine(host_b)
                 .output_data(static_cast<double>(n * sizeof(double)));
  ASSERT_TRUE(builder.link(lu, fwd).has_value());
  fwd.input_file("/u/b.dat", static_cast<double>(n * sizeof(double)));
  ASSERT_TRUE(builder.link(fwd, bwd).has_value());
  afg::Afg graph = builder.build().value();

  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());
  auto lu_assignment = table->find(graph.find_task("LU").value());
  ASSERT_EQ(lu_assignment->primary_host(), site0.hosts[1]);

  // Kill host_b after LU has certainly finished (Fwd/Bwd must move; LU's
  // cached output on host_a feeds the resend).
  env.engine().schedule(lu_assignment->est_finish + 0.5, [&] {
    env.topology().set_host_up(site0.hosts[2], false);
  });

  auto report = env.execute_with_table(graph, *table, session, {});
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->success) << report->failure_reason;
  EXPECT_GE(report->failures_survived, 1);
  auto x = std::any_cast<tasklib::Vector>(
      report->exit_outputs.at(graph.find_task("Bwd")->value()));
  EXPECT_LT(tasklib::residual_inf(a, x, b), 1e-8);
}

TEST(Recovery, CascadeReexecutesDeadParent) {
  // Parent finishes, then its host dies, *then* the child's host dies too:
  // the parent's cached output is gone, so recovery must re-execute the
  // parent before the moved child can run.  Placement pinned as above.
  VdceEnvironment env(make_campus_pair(13), recovery_options());
  env.bring_up();
  auto session = login(env);

  const net::Site& site0 = env.topology().site(common::SiteId(0));
  std::string host_a = env.topology().host(site0.hosts[1]).spec.name;
  std::string host_b = env.topology().host(site0.hosts[2]).spec.name;

  editor::AppBuilder builder("cascade");
  auto s0 = builder.task("s0", "synthetic.w6000")
                .prefer_machine(host_a)
                .output_data(1e5);
  auto s1 = builder.task("s1", "synthetic.w6000").prefer_machine(host_b);
  ASSERT_TRUE(builder.link(s0, s1).has_value());
  afg::Afg graph = builder.build().value();

  RunOptions run;
  run.real_kernels = false;
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());
  auto s0_assignment = table->find(graph.find_task("s0").value());

  env.engine().schedule(s0_assignment->est_finish + 1.0, [&] {
    env.topology().set_host_up(site0.hosts[1], false);
  });
  env.engine().schedule(s0_assignment->est_finish + 2.0, [&] {
    env.topology().set_host_up(site0.hosts[2], false);
  });

  auto report = env.execute_with_table(graph, *table, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  ASSERT_TRUE(report->success) << report->failure_reason;
  EXPECT_GE(report->failures_survived, 1);
  // s0 must have re-executed (its first result died with its host).
  EXPECT_GE(report->outcomes[0].attempts, 2);
  // Neither task completed on a dead machine.
  for (const auto& outcome : report->outcomes) {
    EXPECT_NE(outcome.host, site0.hosts[1]);
    EXPECT_NE(outcome.host, site0.hosts[2]);
  }
}

TEST(Recovery, SuspendDuringSetupDelaysButCompletes) {
  VdceEnvironment env(make_campus_pair(13), recovery_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_chain(2, 1000, 1e4);
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());

  // Suspend almost immediately (possibly still in channel setup), resume
  // 20 simulated seconds later.
  runtime::SiteManager& sm = env.site_manager(common::SiteId(0));
  common::AppId app(1);  // schedule() consumed id 0
  env.engine().schedule(0.05, [&] { sm.suspend_application(app); });
  env.engine().schedule(20.0, [&] { sm.resume_application(app); });

  RunOptions run;
  run.real_kernels = false;
  auto report = env.execute_with_table(graph, *table, session, run);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->success);
}

TEST(Recovery, OverloadNoticesPastTheAttemptCapPinTheTask) {
  // An external job spikes every machine by one CPU.  An idle machine stays
  // under the threshold; the machine running the task goes over it.  So each
  // overload check moves the task, until kMaxTaskAttempts placements have
  // been made.  The next notice pins it where it is, and it completes.
  EnvironmentOptions options = recovery_options();
  options.runtime.overload_threshold = 1.5;
  options.background_load = true;
  options.load.mean_load = 0.0;
  options.load.reversion = 0.0;
  options.load.volatility = 0.0;
  VdceEnvironment env(make_campus_pair(13), options);
  env.bring_up();
  auto session = login(env);
  for (const net::Host& h : env.topology().hosts()) {
    env.background().inject_spike(h.id, 1.0, 1e5);
  }

  afg::Afg graph = afg::make_chain(1, 5000, 1e4);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  ASSERT_TRUE(report->success) << report->failure_reason;

  int overload_moves = 0;
  int pins = 0;
  for (const runtime::RecoveryEvent& r : report->recoveries) {
    if (r.reason == "overload") {
      ++overload_moves;
      EXPECT_NE(r.to_host, r.from_host);
    } else if (r.reason == "pin") {
      ++pins;
      EXPECT_EQ(r.to_host, r.from_host);
      EXPECT_EQ(r.attempt, runtime::kMaxTaskAttempts + 1);
    }
  }
  EXPECT_EQ(overload_moves, runtime::kMaxTaskAttempts - 1);
  EXPECT_EQ(pins, 1);
  ASSERT_EQ(report->outcomes.size(), 1u);
  EXPECT_EQ(report->outcomes.front().attempts, runtime::kMaxTaskAttempts + 1);
}

TEST(Recovery, DsmAndApplicationsShareTheFabric) {
  // DSM protocol traffic and an application execution interleave on the
  // same hosts without stepping on each other's message handling.
  VdceEnvironment env(make_campus_pair(13), recovery_options());
  env.bring_up();
  auto session = login(env);
  dsm::DsmRuntime& dsm_runtime = env.enable_dsm();
  dsm_runtime.define_object("status", tasklib::Value(0), 128);

  // A DSM "status heartbeat" loop runs while the application executes.
  auto client = dsm_runtime.client(env.topology().site(common::SiteId(1)).hosts[2]);
  struct Heartbeat {
    dsm::DsmClient& client;
    int remaining;
    void beat() {
      if (remaining-- == 0) return;
      client.write("status", tasklib::Value(remaining),
                   [this] { beat(); });
    }
  };
  Heartbeat heartbeat{client, 200};
  heartbeat.beat();

  afg::Afg graph = afg::make_fork_join(3, 2, 800, 1e5);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(std::any_cast<int>(dsm_runtime.home_value("status").value()), 0);
}

// --- recovery honours the access domain --------------------------------------

/// A fan-out app wide enough to queue work on every machine of one site.
afg::Afg fan_app() {
  editor::AppBuilder app("fan");
  auto head = app.task("head", "synthetic.w400").output_data(5e4);
  auto tail = app.task("tail", "synthetic.w300");
  for (int i = 0; i < 6; ++i) {
    auto body = app.task("body" + std::to_string(i), "synthetic.w4000")
                    .output_data(5e4);
    EXPECT_TRUE(app.link(head, body).has_value());
    EXPECT_TRUE(app.link(body, tail).has_value());
  }
  return app.build().value();
}

TestbedSpec three_sites() {
  TestbedSpec spec;
  spec.sites = 3;
  spec.hosts_per_site = 4;
  spec.group_size = 2;
  spec.seed = 5;
  return spec;
}

/// Run fan_app() from site 0, either as a local-only account under the
/// default row or as a global account under "vdce-local"; both resolve to
/// the local-site access domain.
runtime::ExecutionReport run_local(bool local_account,
                                   chaos::FaultPlan plan = {}) {
  EnvironmentOptions options = recovery_options();
  options.faults = std::move(plan);
  VdceEnvironment env(make_testbed(three_sites()), options);
  env.bring_up();
  EXPECT_TRUE(env.try_add_user("u", "p", 1,
                               local_account ? db::AccessDomain::kLocalSite
                                             : db::AccessDomain::kGlobal)
                  .ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();
  RunOptions run;
  run.real_kernels = false;
  if (!local_account) run.sched.strategy = "vdce-local";
  auto report = env.run_application(fan_app(), session, run);
  EXPECT_TRUE(report.has_value()) << report.error().to_string();
  return report ? *report : runtime::ExecutionReport{};
}

TEST(Recovery, ReplacementStaysInsideTheAccessDomain) {
  const net::Topology topo = make_testbed(three_sites());
  const common::HostId server = topo.site(common::SiteId(0)).server;
  for (bool local_account : {true, false}) {
    SCOPED_TRACE(local_account ? "local-only account" : "vdce-local row");
    // Crash the middle of the longest task interval that is not on the
    // site's server (crashing a Site Manager is a different scenario).
    const runtime::ExecutionReport control = run_local(local_account);
    ASSERT_TRUE(control.success) << control.failure_reason;
    common::HostId victim;
    double at = 0.0, longest = 0.0;
    for (const runtime::TaskOutcome& o : control.outcomes) {
      ASSERT_EQ(o.site, common::SiteId(0));
      if (o.host != server && o.finished - o.started > longest) {
        longest = o.finished - o.started;
        victim = o.host;
        at = o.started + longest / 2.0;
      }
    }
    ASSERT_TRUE(victim.valid());

    chaos::FaultPlan plan;
    plan.name("local-crash").seed(1).crash(victim, at, 120.0);
    const runtime::ExecutionReport faulted =
        run_local(local_account, std::move(plan));
    ASSERT_TRUE(faulted.success) << faulted.failure_reason;
    EXPECT_GE(faulted.failures_survived, 1) << "the crash missed the app";
    for (const runtime::TaskOutcome& o : faulted.outcomes) {
      EXPECT_EQ(topo.host(o.host).site, common::SiteId(0))
          << o.task_name << " completed on host " << o.host.value();
    }
    std::size_t replaced = 0;
    for (const runtime::RecoveryEvent& e : faulted.recoveries) {
      if (!e.to_host.valid()) continue;
      ++replaced;
      EXPECT_EQ(topo.host(e.to_host).site, common::SiteId(0))
          << e.reason << " re-placed a task on host " << e.to_host.value();
    }
    EXPECT_GE(replaced, 1u);
  }
}

// --- the launch barrier after pre-launch recovery ----------------------------

/// fan_app() from site 0 on three_sites(), under `plan`.  A short sync
/// timeout turns an application that never launches into a quick failure.
common::Expected<runtime::ExecutionReport> run_fan(chaos::FaultPlan plan) {
  EnvironmentOptions options = recovery_options();
  options.sync_timeout = 300.0;
  options.faults = std::move(plan);
  VdceEnvironment env(make_testbed(three_sites()), options);
  env.bring_up();
  Session session = login(env);
  RunOptions run;
  run.real_kernels = false;
  return env.run_application(fan_app(), session, run);
}

TEST(Recovery, RebootedHostWithoutTasksDoesNotHoldTheLaunch) {
  // A host that holds a task crashes before the launch, and recovery moves
  // its tasks away.  Every readiness report is lost until well after the
  // host has rebooted, so the launch comes only from the coordinator's
  // relaunch, with the host up again but holding no task.  It never
  // receives gm.exec and so never reports ready: the launch must not wait
  // for it.
  const auto control = run_fan({});
  ASSERT_TRUE(control.has_value()) << control.error().to_string();
  ASSERT_TRUE(control->success) << control->failure_reason;
  const common::HostId victim = control->outcomes.front().host;

  chaos::FaultPlan plan;
  plan.name("prelaunch-reboot")
      .seed(1)
      .crash(victim, control->submitted, 3.0)
      .loss(1.0, 0.0, 8.0, "ac.ready");
  const auto faulted = run_fan(std::move(plan));
  ASSERT_TRUE(faulted.has_value()) << faulted.error().to_string();
  ASSERT_TRUE(faulted->success) << faulted->failure_reason;
  EXPECT_GE(faulted->failures_survived, 1) << "the crash missed the app";
  EXPECT_GT(faulted->exec_started, 8.0);
  for (const runtime::TaskOutcome& o : faulted->outcomes) {
    EXPECT_NE(o.host, victim) << o.task_name << " stayed on the victim";
  }
}

}  // namespace
}  // namespace vdce
