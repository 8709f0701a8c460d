// E3 — the performance-prediction core (§3): accuracy under load dynamics
// and the value of measured history.
//
// On a live testbed with drifting background load, predictions are made
// from the *database view* (fed by the monitoring pipeline) and compared
// against actual execution times from the ground-truth model.  Sweeps the
// background volatility, and contrasts the uncalibrated analytic model with
// the measurement-calibrated path after repeated executions.
#include <cmath>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "sched/support.hpp"
#include "vdce/vdce.hpp"

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "prediction", "BENCH_PREDICTION.json");
  bench::print_title("E3", "prediction error vs load volatility + calibration");
  bench::print_note(
      "error = |predicted - actual| / actual per task execution.\n"
      "analytic = db-view model; calibrated = after 3 prior runs recorded\n"
      "measured times into the task-performance database.");

  std::string unscheduled;
  std::string unexecuted;
  for (double volatility : {0.0, 0.1, 0.2, 0.4}) {
    EnvironmentOptions options;
    options.background_load = true;
    options.load.volatility = volatility;
    options.load.mean_load = 0.5;
    options.runtime.monitor_period = 1.0;
    options.runtime.exec_noise_cv = 0.05;
    VdceEnvironment env(make_campus_pair(3), options);
    env.bring_up();
    env.add_user("u", "p");
    auto session = env.login(common::SiteId(0), "u", "p").value();
    env.run_for(15.0);  // monitoring history warm-up

    afg::Afg graph = afg::make_independent(10, 2000);
    RunOptions run_options;
    run_options.real_kernels = false;

    common::Stats analytic_err;
    common::Stats calibrated_err;
    double load_sum = 0.0;
    int runs = 0;

    // 5 runs: runs 0-2 seed measured history, runs 3-4 score both paths.
    bool failed = false;
    for (int iteration = 0; iteration < 5 && !failed; ++iteration) {
      auto table_result = env.schedule(graph, session);
      if (!table_result) {
        unscheduled += bench::strf(" volatility %g: %s;", volatility,
                                   table_result.error().to_string().c_str());
        failed = true;
        continue;
      }
      auto report =
          env.execute_with_table(graph, *table_result, session, run_options);
      if (!report || !report->success) {
        unexecuted += bench::strf(
            " volatility %g: %s;", volatility,
            (report ? report->failure_reason : report.error().to_string())
                .c_str());
        failed = true;
        continue;
      }
      env.run_for(5.0);

      if (iteration < 3) continue;
      for (const auto& outcome : report->outcomes) {
        // Rescheduled tasks ran elsewhere than the table planned; score
        // only placements that stuck (the prediction being evaluated is
        // the one the scheduler actually made for this host).
        auto assignment = table_result->find(outcome.task);
        if (!assignment || assignment->primary_host() != outcome.host) {
          continue;
        }
        double actual = outcome.finished - outcome.started;
        // The scheduler's prediction at assignment time (calibrated path
        // once history exists).
        double calibrated = assignment->predicted_time;
        calibrated_err.add(std::fabs(calibrated - actual) / actual);
        // The pure analytic prediction for the same placement.
        common::SiteId host_site = env.topology().host(outcome.host).site;
        auto rec = env.repo(host_site).resources().find(outcome.host);
        auto perf = sched::resolve_perf(graph.task(outcome.task),
                                        env.repo(session.site).tasks());
        if (!rec || !perf) continue;
        auto analytic = env.core().predictor().predict(*perf, *rec);
        if (analytic) {
          analytic_err.add(std::fabs(*analytic - actual) / actual);
        }
      }
      for (const net::Host& h : env.topology().hosts()) {
        load_sum += h.state.cpu_load;
        ++runs;
      }
    }

    if (failed) continue;
    double improvement = analytic_err.mean() > 0
                             ? analytic_err.mean() / calibrated_err.mean()
                             : 0.0;
    run.row("volatility_sweep")
        .num("volatility", volatility)
        .num("mean_load", load_sum / runs)
        .num("analytic_err", analytic_err.mean())
        .num("calibrated_err", calibrated_err.mean())
        .num("improvement", improvement);
  }
  run.table("volatility_sweep");
  run.check("scheduled", unscheduled.empty(),
            unscheduled.empty() ? "every run produced an allocation table"
                                : "no table at" + unscheduled);
  run.check("executed", unexecuted.empty(),
            unexecuted.empty() ? "every run's execution succeeded"
                               : "failed at" + unexecuted);

  bench::print_note(
      "\nExpected shape: analytic error grows with volatility (the db\n"
      "snapshot goes stale between monitor reports); measured-history\n"
      "calibration helps increasingly with volatility, because measured\n"
      "means average over load conditions instead of chasing snapshots.");
  return run.finish();
}
