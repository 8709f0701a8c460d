// E-chaos — fault-injection plane: detection latency, recovery overhead.
//
// Two sweeps over the same pinned fork-join workload, every trial driven by
// a chaos::FaultPlan (so each configuration is deterministic and
// replayable from its seed):
//
//   * crash sweep — K = 1..3 pinned hosts die mid-run; measures the
//     crash -> coordinator-reaction latency (RecoveryEvent.detected_at),
//     task downtime, and makespan overhead versus the clean run;
//   * loss sweep — dm.* traffic dropped at rates 0..0.5 for the whole run;
//     measures how much the retry/stall safety nets stretch the makespan.
//
// Writes BENCH_FAULT_RECOVERY.json (bench_util.hpp schema) next to the
// tables.  `--smoke` runs one trial per configuration for a fast CI signal.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "editor/builder.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

struct TrialResult {
  bool success = false;
  double makespan = 0.0;
  double mean_detect = 0.0;   ///< crash time -> coordinator reaction
  double mean_downtime = 0.0; ///< detection -> successful attempt start
  int recoveries = 0;
  std::uint64_t dropped = 0;
};

EnvironmentOptions base_options(chaos::FaultPlan plan) {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.echo_period = 0.5;
  options.runtime.progress_period = 1.0;
  // The pinned stages run for tens of simulated seconds; widen the stall
  // window so the lost-message safety net doesn't dominate the recovery
  // counts we're measuring.
  options.runtime.stall_sweeps = 8;
  options.faults = std::move(plan);
  return options;
}

/// Three parallel stages pinned to known machines feeding a join — the
/// same shape for every trial, so makespans are comparable.
afg::Afg make_workload(const std::vector<std::string>& pinned) {
  editor::AppBuilder builder("fault-recovery-bench");
  auto join = builder.task("join", "synthetic.w500");
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    auto stage = builder.task("par" + std::to_string(i), "synthetic.w2000")
                     .prefer_machine(pinned[i])
                     .output_data(1e5);
    if (!builder.link(stage, join).has_value()) std::abort();
  }
  return builder.build().value();
}

TrialResult run_trial(chaos::FaultPlan plan, std::uint64_t topology_seed,
                      const std::vector<double>& crash_times) {
  net::Topology topology = make_campus_pair(topology_seed);
  const net::Site& site0 = topology.site(common::SiteId(0));
  std::vector<std::string> pinned;
  for (common::HostId h : site0.hosts) {
    if (h == site0.server) continue;
    pinned.push_back(topology.host(h).spec.name);
    if (pinned.size() == 3) break;
  }
  for (std::size_t k = 0; k < crash_times.size(); ++k) {
    plan.crash(pinned[k], crash_times[k]);
  }

  VdceEnvironment env(std::move(topology), base_options(std::move(plan)));
  env.bring_up();
  env.add_user("u", "p");
  Session session = env.login(common::SiteId(0), "u", "p").value();

  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(make_workload(pinned), session, run);

  TrialResult result;
  if (!report.has_value()) return result;
  result.success = report->success;
  result.makespan = report->makespan();
  result.recoveries = static_cast<int>(report->recoveries.size());
  if (env.chaos() != nullptr) result.dropped = env.chaos()->messages_dropped();

  common::Stats detect, downtime;
  for (const runtime::RecoveryEvent& r : report->recoveries) {
    if (r.reason != "host_down") continue;
    // Attribute the reaction to the closest preceding crash.
    double crash_at = 0.0;
    for (double t : crash_times) {
      if (t <= r.detected_at && t > crash_at) crash_at = t;
    }
    detect.add(r.detected_at - crash_at);
    if (r.downtime > 0) downtime.add(r.downtime);
  }
  result.mean_detect = detect.count() ? detect.mean() : 0.0;
  result.mean_downtime = downtime.count() ? downtime.mean() : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "fault_recovery", "BENCH_FAULT_RECOVERY.json");
  const int trials = run.smoke() ? 1 : 5;

  bench::print_title("E-chaos", "fault injection: detection and recovery cost");
  bench::print_note(
      "pinned 3-wide fork-join; crashes and loss injected via FaultPlan.\n"
      "overhead = makespan / clean makespan (same topology, no faults).");

  // Clean baseline.
  common::Stats clean;
  for (int t = 0; t < trials; ++t) {
    TrialResult r = run_trial(chaos::FaultPlan{}.name("clean"),
                              13 + static_cast<std::uint64_t>(t), {});
    if (r.success) clean.add(r.makespan);
  }
  const double clean_makespan = clean.count() ? clean.mean() : 0.0;

  run.row("summary")
      .num("trials", trials)
      .num("clean_makespan_s", clean_makespan);

  // --- crash sweep ---------------------------------------------------------
  for (int kills = 1; kills <= 3; ++kills) {
    common::Stats detect, downtime, makespan;
    int survived = 0, recoveries = 0;
    for (int t = 0; t < trials; ++t) {
      std::vector<double> crash_times;
      for (int k = 0; k < kills; ++k) crash_times.push_back(1.0 + 0.7 * k);
      chaos::FaultPlan plan;
      plan.name("crash-k" + std::to_string(kills))
          .seed(100 + static_cast<std::uint64_t>(t));
      TrialResult r = run_trial(std::move(plan),
                                13 + static_cast<std::uint64_t>(t),
                                crash_times);
      if (r.success) {
        ++survived;
        makespan.add(r.makespan);
        if (r.mean_detect > 0) detect.add(r.mean_detect);
        if (r.mean_downtime > 0) downtime.add(r.mean_downtime);
      }
      recoveries += r.recoveries;
    }
    const double overhead =
        clean_makespan > 0 && makespan.count()
            ? makespan.mean() / clean_makespan
            : 0.0;
    run.row("crash_sweep")
        .num("kills", kills)
        .num("survived", survived)
        .num("mean_detect_s", detect.count() ? detect.mean() : 0)
        .num("mean_downtime_s", downtime.count() ? downtime.mean() : 0)
        .num("recoveries", recoveries)
        .num("makespan_overhead", overhead);
  }
  run.table("crash_sweep");

  // --- loss sweep ----------------------------------------------------------
  for (double rate : {0.0, 0.1, 0.3, 0.5}) {
    common::Stats makespan;
    int survived = 0, recoveries = 0;
    std::uint64_t dropped = 0;
    for (int t = 0; t < trials; ++t) {
      chaos::FaultPlan plan;
      plan.name("loss").seed(200 + static_cast<std::uint64_t>(t));
      if (rate > 0) plan.loss(rate, 0.0, 1e6, "dm.");
      TrialResult r = run_trial(std::move(plan),
                                13 + static_cast<std::uint64_t>(t), {});
      if (r.success) {
        ++survived;
        makespan.add(r.makespan);
      }
      recoveries += r.recoveries;
      dropped += r.dropped;
    }
    const double overhead =
        clean_makespan > 0 && makespan.count()
            ? makespan.mean() / clean_makespan
            : 0.0;
    run.row("loss_sweep")
        .num("rate", rate)
        .num("survived", survived)
        .num("dropped", dropped)
        .num("recoveries", recoveries)
        .num("makespan_overhead", overhead);
  }
  run.table("loss_sweep");
  return run.finish();
}
