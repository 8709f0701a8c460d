// End-to-end integration tests: the full submit -> authenticate -> schedule
// -> distribute -> execute -> report pipeline, with real kernels, failure
// recovery, overload rescheduling, and the console service.
#include <gtest/gtest.h>

#include "afg/generate.hpp"
#include "editor/builder.hpp"
#include "tasklib/matrix.hpp"
#include "sched/support.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

EnvironmentOptions fast_options() {
  EnvironmentOptions options;
  options.runtime.monitor_period = 0.5;
  options.runtime.echo_period = 1.0;
  options.runtime.progress_period = 2.0;
  options.runtime.exec_noise_cv = 0.0;  // deterministic durations
  return options;
}

Session login(VdceEnvironment& env) {
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret");
  EXPECT_TRUE(session.has_value());
  return *session;
}

TEST(Environment, LoginRejectsBadCredentials) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  env.add_user("user_k", "secret");
  EXPECT_FALSE(env.login(common::SiteId(0), "user_k", "wrong").has_value());
  EXPECT_FALSE(env.login(common::SiteId(1), "ghost", "x").has_value());
  EXPECT_TRUE(env.login(common::SiteId(1), "user_k", "secret").has_value());
}

TEST(Environment, DistributedSchedulingProducesTable) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_linear_solver_shape(1e5);
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value()) << table.error().message;
  EXPECT_EQ(table->assignments.size(), graph.task_count());
  // The AFG multicast and the bids reply actually crossed the fabric.
  const net::FabricStats& stats = env.fabric().stats();
  EXPECT_GE(stats.sent_by_type("sm.afg"), 1u);
  EXPECT_GE(stats.sent_by_type("sm.bids"), 1u);
}

TEST(Environment, LocalDomainUserSchedulesWithoutMulticast) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  env.add_user("loc", "pw", 1, db::AccessDomain::kLocalSite);
  auto session = env.login(common::SiteId(0), "loc", "pw").value();
  afg::Afg graph = afg::make_independent(4, 200);
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());
  for (const auto& a : table->assignments) EXPECT_EQ(a.site, common::SiteId(0));
  EXPECT_EQ(env.fabric().stats().sent_by_type("sm.afg"), 0u);
}

TEST(Environment, SchedulingSurvivesDeadRemoteSite) {
  // The remote site's server is dead: its bids never arrive, and the bid
  // deadline must release the scheduling round with local outputs only.
  auto options = fast_options();
  options.runtime.bid_timeout = 1.0;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  auto session = login(env);
  env.topology().set_host_up(env.topology().site(common::SiteId(1)).server,
                             false);

  afg::Afg graph = afg::make_independent(4, 300);
  double t0 = env.now();
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value()) << table.error().message;
  EXPECT_LE(env.now() - t0, 1.5);  // released by the deadline, not hung
  for (const auto& a : table->assignments) {
    EXPECT_EQ(a.site, common::SiteId(0));  // only local bids existed
  }
}

TEST(Environment, TimingOnlyExecutionCompletes) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  common::Rng rng(5);
  afg::LayeredDagSpec spec;
  spec.tasks = 25;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_TRUE(report->success) << report->failure_reason;
  EXPECT_EQ(report->outcomes.size(), graph.task_count());
  EXPECT_GT(report->makespan(), 0.0);
  EXPECT_GE(report->setup_time(), 0.0);
}

TEST(Environment, ExecutionRespectsPrecedence) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_chain(5, 300, 1e5);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->success);
  // Chain stages must finish in order.
  for (std::size_t i = 1; i < report->outcomes.size(); ++i) {
    EXPECT_GE(report->outcomes[i].started + 1e-9,
              report->outcomes[i - 1].finished);
  }
}

TEST(Environment, RealKernelLinearSolverComputesCorrectX) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);

  // Stage the user's input files in the VDCE store (I/O service).
  common::Rng rng(42);
  const std::size_t n = 24;
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  tasklib::Vector b(n);
  for (double& v : b) v = rng.uniform(-2, 2);
  env.store().put("/users/VDCE/user_k/matrix_A.dat", tasklib::Value(a),
                  a.size_bytes());
  env.store().put("/users/VDCE/user_k/vector_b.dat", tasklib::Value(b),
                  static_cast<double>(n * sizeof(double)));

  // Figure-1 pipeline via the editor API.
  editor::AppBuilder app("Linear Equation Solver");
  auto lu = app.task("LU_Decomposition", "matrix.lu_decomposition")
                .input_file("/users/VDCE/user_k/matrix_A.dat", a.size_bytes())
                .output_data(a.size_bytes());
  auto fwd = app.task("Forward_Substitution", "matrix.forward_substitution")
                 .output_data(a.size_bytes());
  auto bwd = app.task("Backward_Substitution", "matrix.backward_substitution")
                 .output_data(n * sizeof(double));
  ASSERT_TRUE(app.link(lu, fwd).has_value());
  // Forward substitution's second input is the rhs file.
  fwd.input_file("/users/VDCE/user_k/vector_b.dat",
                 static_cast<double>(n * sizeof(double)));
  ASSERT_TRUE(app.link(fwd, bwd).has_value());
  auto graph = app.build();
  ASSERT_TRUE(graph.has_value()) << graph.error().message;

  auto report = env.run_application(*graph, session);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  ASSERT_TRUE(report->success) << report->failure_reason;

  // The exit task's output is x with A x = b.
  auto bwd_id = graph->find_task("Backward_Substitution").value();
  ASSERT_TRUE(report->exit_outputs.contains(bwd_id.value()));
  auto x = std::any_cast<tasklib::Vector>(
      report->exit_outputs.at(bwd_id.value()));
  EXPECT_LT(tasklib::residual_inf(a, x, b), 1e-8);
}

TEST(Environment, OutputFilesLandInTheUserStore) {
  // Figure 1's vector_X.dat: a task with an output *file* binding writes
  // the produced value back to the user's VDCE file space via dm.output.
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);

  common::Rng rng(6);
  const std::size_t n = 16;
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  tasklib::Vector b(n);
  for (double& v : b) v = rng.uniform(-1, 1);
  env.store().put("/u/A.dat", tasklib::Value(a), a.size_bytes());
  env.store().put("/u/b.dat", tasklib::Value(b),
                  static_cast<double>(n * sizeof(double)));

  editor::AppBuilder app("writer");
  auto lu = app.task("LU", "matrix.lu_decomposition")
                .input_file("/u/A.dat", a.size_bytes())
                .output_data(a.size_bytes());
  auto fwd = app.task("Fwd", "matrix.forward_substitution")
                 .output_data(a.size_bytes());
  auto bwd = app.task("Bwd", "matrix.backward_substitution")
                 .output_file("/u/x.dat",
                              static_cast<double>(n * sizeof(double)));
  ASSERT_TRUE(app.link(lu, fwd).has_value());
  fwd.input_file("/u/b.dat", static_cast<double>(n * sizeof(double)));
  ASSERT_TRUE(app.link(fwd, bwd).has_value());
  auto graph = app.build().value();

  ASSERT_FALSE(env.store().contains("/u/x.dat"));
  auto report = env.run_application(graph, session, {});
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->success) << report->failure_reason;

  auto stored = env.store().get("/u/x.dat");
  ASSERT_TRUE(stored.has_value());
  auto x = std::any_cast<tasklib::Vector>(stored->value);
  EXPECT_LT(tasklib::residual_inf(a, x, b), 1e-8);
}

TEST(Environment, MissingStoreObjectFailsRealRun) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  editor::AppBuilder app("demo");
  (void)app.task("LU", "matrix.lu_decomposition")
      .input_file("/users/VDCE/user_k/missing.dat", 1000)
      .output_data(1000);
  auto graph = app.build();
  ASSERT_TRUE(graph.has_value());
  auto report = env.run_application(*graph, session);
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code, common::ErrorCode::kNotFound);
}

TEST(Environment, KernelErrorReportedAsFailure) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  // A singular matrix makes the LU kernel fail at runtime.
  tasklib::Matrix zeros(4, 4, 0.0);
  env.store().put("/users/VDCE/user_k/singular.dat", tasklib::Value(zeros),
                  zeros.size_bytes());
  editor::AppBuilder app("demo");
  (void)app.task("LU", "matrix.lu_decomposition")
      .input_file("/users/VDCE/user_k/singular.dat", zeros.size_bytes())
      .output_data(100);
  auto graph = app.build();
  auto report = env.run_application(*graph, session);
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->success);
  EXPECT_NE(report->failure_reason.find("singular"), std::string::npos);
}

TEST(Environment, HostFailureMidRunIsSurvived) {
  auto options = fast_options();
  options.runtime.echo_period = 0.5;
  options.runtime.progress_period = 1.0;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  auto session = login(env);

  // A long chain so there is plenty of time to kill a machine mid-run.
  afg::Afg graph = afg::make_chain(6, 3000, 1e5);
  RunOptions run;
  run.real_kernels = false;
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());
  // Kill the machine hosting the third stage shortly after execution
  // starts.
  common::HostId victim =
      table->find(graph.find_task("s2").value())->primary_host();
  // Ensure the victim is not the coordinator's server machine (it hosts the
  // Site Manager; killing it is a different experiment).
  if (victim == env.topology().site(common::SiteId(0)).server) {
    GTEST_SKIP() << "scheduler placed the stage on the server host";
  }
  env.engine().schedule(5.0,
                        [&] { env.topology().set_host_up(victim, false); });
  auto report = env.execute_with_table(graph, *table, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_TRUE(report->success) << report->failure_reason;
  EXPECT_GE(report->failures_survived, 1);
  // The failed machine hosts nothing in the final outcome set.
  for (const auto& outcome : report->outcomes) {
    EXPECT_NE(outcome.host, victim);
  }
}

TEST(Environment, OverloadTriggersReschedule) {
  auto options = fast_options();
  options.runtime.overload_threshold = 2.0;
  options.runtime.controller_period = 0.5;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  auto session = login(env);

  afg::Afg graph = afg::make_independent(1, 20000);  // one long task
  RunOptions run;
  run.real_kernels = false;
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());
  common::HostId chosen = table->assignments[0].primary_host();
  // Slam the chosen machine with background load shortly after start.
  env.engine().schedule(10.0, [&] {
    env.topology().add_cpu_load(chosen, 5.0);
  });
  auto report = env.execute_with_table(graph, *table, session, run);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->success) << report->failure_reason;
  EXPECT_GE(report->reschedules, 1);
  EXPECT_NE(report->outcomes[0].host, chosen);
  EXPECT_GE(report->outcomes[0].attempts, 2);
}

TEST(Environment, SuspendDelaysExecution) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_chain(3, 1000, 1e4);
  RunOptions run;
  run.real_kernels = false;

  // Run once normally for a baseline makespan.
  auto baseline = env.run_application(graph, session, run);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(baseline->success);

  // Run again, suspending for 30 simulated seconds mid-flight.
  auto table = env.schedule(graph, session);
  ASSERT_TRUE(table.has_value());
  common::AppId next_app(2 + 1);  // apps 0..2 used above (2 schedules + run)
  (void)next_app;
  runtime::SiteManager& sm = env.site_manager(common::SiteId(0));
  env.engine().schedule(2.0, [&] {
    sm.suspend_application(common::AppId(3));
    env.engine().schedule(30.0,
                          [&] { sm.resume_application(common::AppId(3)); });
  });
  auto suspended = env.execute_with_table(graph, *table, session, run);
  ASSERT_TRUE(suspended.has_value());
  ASSERT_TRUE(suspended->success) << suspended->failure_reason;
  EXPECT_GT(suspended->makespan(), baseline->makespan() + 10.0);
}

TEST(Environment, MeasurementsSharpenPredictions) {
  // Run the same app twice; the second run's predictions use measured
  // history (recorded by the Site Manager) instead of the analytic model.
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_chain(3, 500, 1e4);
  RunOptions run;
  run.real_kernels = false;
  auto first = env.run_application(graph, session, run);
  ASSERT_TRUE(first.has_value());
  // Measured history now exists for the executed (task, host) pairs.
  bool any_measured = false;
  for (const auto& outcome : first->outcomes) {
    for (common::SiteId repo_site : {common::SiteId(0), common::SiteId(1)}) {
      auto m = env.repo(repo_site).tasks().measured(
          graph.task(outcome.task).task_name, outcome.host);
      if (m) any_measured = true;
    }
  }
  EXPECT_TRUE(any_measured);
  auto second = env.run_application(graph, session, run);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->success);
}

TEST(Environment, ExecutionChargesDataTransfers) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_chain(3, 200, 5e5);
  RunOptions run;
  run.real_kernels = false;
  env.fabric().reset_stats();
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value());
  const net::FabricStats& stats = env.fabric().stats();
  EXPECT_GE(stats.sent_by_type("dm.data"), 2u);       // two chain edges
  EXPECT_GE(stats.sent_by_type("ac.task_done"), 3u);  // one per task
  EXPECT_GE(stats.sent_by_type("sm.rat"), 1u);
  EXPECT_GE(stats.sent_by_type("gm.exec"), 1u);
}

TEST(Environment, ReportDescribeIsComplete) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg graph = afg::make_linear_solver_shape(1e4);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value());
  std::string text = report->describe(graph);
  EXPECT_NE(text.find("SUCCESS"), std::string::npos);
  EXPECT_NE(text.find("Gantt"), std::string::npos);
  for (const afg::TaskNode& t : graph.tasks()) {
    EXPECT_NE(text.find(t.instance_name), std::string::npos);
  }
}

TEST(Environment, ConcurrentApplicationsBothComplete) {
  VdceEnvironment env(make_campus_pair(), fast_options());
  env.bring_up();
  auto session = login(env);
  afg::Afg g1 = afg::make_chain(4, 500, 1e4);
  afg::Afg g2 = afg::make_independent(6, 400);
  auto t1 = env.schedule(g1, session);
  auto t2 = env.schedule(g2, session);
  ASSERT_TRUE(t1.has_value() && t2.has_value());

  // Launch both before driving the engine: they interleave on the fabric.
  bool done1 = false, done2 = false;
  runtime::ExecutionReport r1, r2;
  // Use the site manager directly to overlap executions.
  runtime::SiteManager& sm = env.site_manager(common::SiteId(0));
  std::vector<db::TaskPerfRecord> perf1, perf2;
  for (const afg::TaskNode& n : g1.tasks()) {
    perf1.push_back(*sched::resolve_perf(n, env.repo(common::SiteId(0)).tasks()));
  }
  for (const afg::TaskNode& n : g2.tasks()) {
    perf2.push_back(*sched::resolve_perf(n, env.repo(common::SiteId(0)).tasks()));
  }
  sm.execute_application(common::AppId(100),
                         std::make_shared<const afg::Afg>(g1), *t1, perf1, {}, {},
                         [&](runtime::ExecutionReport r) {
                           r1 = std::move(r);
                           done1 = true;
                         });
  sm.execute_application(common::AppId(101),
                         std::make_shared<const afg::Afg>(g2), *t2, perf2, {}, {},
                         [&](runtime::ExecutionReport r) {
                           r2 = std::move(r);
                           done2 = true;
                         });
  while (!(done1 && done2) && !env.engine().empty()) {
    env.engine().run_steps(512);
  }
  ASSERT_TRUE(done1 && done2);
  EXPECT_TRUE(r1.success);
  EXPECT_TRUE(r2.success);
}

}  // namespace
}  // namespace vdce
