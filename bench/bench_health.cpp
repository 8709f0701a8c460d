// E14 — the health plane scored against chaos ground truth.
//
// A fixed fault corpus (crashes, a partition, a stale-monitor window, a
// load spike, a degraded link) runs against the default rule set while the
// rule sensitivity sweeps from hair-trigger (0.1) to conservative (2.0).
// For each setting: per-fault-class detection recall and mean latency,
// alert-level precision, and the false-positive count.  The expected shape
// is the classic detector trade-off — low sensitivity detects fastest but
// pays for it in false positives; high sensitivity goes quiet in both
// columns.
//
// Writes BENCH_HEALTH.json (bench_util.hpp schema; --smoke sweeps fewer
// sensitivity settings).  Checks: at sensitivity 1.0, crash and partition
// recall are both >= 0.9 with zero false-positive alerts, and a second
// identical run reproduces the score table and the alert log byte for byte.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/health.hpp"
#include "vdce/vdce.hpp"

namespace {

namespace health = vdce::obs::health;

struct SweepResult {
  double sensitivity = 1.0;
  health::DetectionScore score;
  std::string alert_log;
  std::size_t alerts = 0;
};

/// The corpus: every fault class, windows long enough for the default rule
/// cadences, and only non-server hosts crash (site servers carry the Site
/// Managers and the probe endpoints).
vdce::chaos::FaultPlan make_corpus() {
  vdce::chaos::FaultPlan plan;
  plan.name("health-corpus")
      .seed(11)
      .crash(vdce::common::HostId(2), 5.0, 10.0)
      .stale_host(vdce::common::HostId(9), 8.0, 10.0)
      .slow(vdce::common::HostId(4), 12.0, 12.0, 4.0)
      .partition(0, 1, 18.0, 10.0)
      .crash(vdce::common::HostId(11), 30.0, 9.0)
      .degrade(0, 1, 32.0, 8.0, 20.0, 1.0);
  return plan;
}

SweepResult run_corpus(double sensitivity, double horizon) {
  using namespace vdce;
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.echo_period = 0.5;
  options.metrics.enabled = true;
  options.trace.enabled = true;
  options.health.enabled = true;
  options.health.sensitivity = sensitivity;
  options.faults = make_corpus();

  VdceEnvironment env(make_campus_pair(13), options);
  env.bring_up();
  env.run_for(horizon);

  health::DetectionOptions scoring;
  scoring.horizon = horizon;
  SweepResult result;
  result.sensitivity = sensitivity;
  result.score = health::score_detections(env.chaos()->ground_truth(),
                                          env.health().alerts(), scoring);
  result.alert_log = health::render_alerts(env.health().alerts());
  result.alerts = env.health().alerts().size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "health", "BENCH_HEALTH.json");
  const bool smoke = run.smoke();
  const double horizon = 45.0;
  const std::vector<double> sweep =
      smoke ? std::vector<double>{0.25, 1.0}
            : std::vector<double>{0.1, 0.25, 0.5, 1.0, 2.0};

  bench::print_title("E14", "health plane: detection vs rule sensitivity");
  bench::print_note(
      bench::strf("12 hosts, %.0f", horizon) +
      "s horizon, 6-fault corpus (2 crashes, stale window, load spike,\n"
      "partition, degraded link), default rules.  sensitivity < 1 is\n"
      "hair-trigger, > 1 conservative.");

  run.row("summary").num("horizon_s", horizon);

  std::vector<SweepResult> results;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    results.push_back(run_corpus(sweep[i], horizon));
    const SweepResult& r = results.back();

    common::Stats latency;
    for (const health::FaultDetection& d : r.score.faults) {
      if (d.detected) latency.add(d.latency);
    }
    bench::Run::Row row = run.row("sweep")
        .num("sensitivity", r.sensitivity)
        .num("alerts", r.alerts)
        .num("true_positive_alerts", r.score.true_positive_alerts)
        .num("false_positive_alerts", r.score.false_positive_alerts)
        .num("precision", r.score.precision())
        .num("mean_latency_s", latency.mean());
    for (const auto& [cls, cs] : r.score.by_class) {
      const std::string key = "by_class." + cls;
      row.num(key + ".total", cs.total)
          .num(key + ".detected", cs.detected)
          .num(key + ".recall", cs.recall());
    }
  }
  run.table("sweep");

  bench::print_note(
      "\nExpected shape: recall holds near 1.0 for crash/partition/stale\n"
      "across the sweep (their staleness signals are unambiguous) while\n"
      "false positives explode below sensitivity ~0.5, where the stale\n"
      "window undercuts the 1 Hz sampling period.");

  const SweepResult* nominal = nullptr;
  for (const SweepResult& r : results) {
    if (r.sensitivity == 1.0) nominal = &r;
  }
  run.check("nominal_swept", nominal != nullptr,
            "the sweep includes sensitivity 1.0");
  if (nominal != nullptr) {
    auto class_recall = [&](const char* cls) {
      auto it = nominal->score.by_class.find(cls);
      return it == nominal->score.by_class.end() ? 1.0 : it->second.recall();
    };
    const double crash = class_recall("crash");
    const double partition = class_recall("partition");
    const bool recall_ok = crash >= 0.9 && partition >= 0.9;
    run.check("recall", recall_ok,
              bench::strf("crash recall %.2f, partition recall %.2f; need "
                          ">= 0.9",
                          crash, partition) +
                  (recall_ok ? "" : "\n" + nominal->score.render()));
    const std::size_t fp = nominal->score.false_positive_alerts;
    run.check("no_false_positives", fp == 0,
              bench::strf("%zu false-positive alerts at nominal sensitivity",
                          fp) +
                  (fp == 0 ? "" : "\n" + nominal->alert_log));
    // Bit-for-bit reproducibility: a second identical run must reproduce
    // the alert log and the score table (detection latencies included).
    const SweepResult rerun = run_corpus(1.0, horizon);
    const bool identical = rerun.alert_log == nominal->alert_log &&
                           rerun.score.render() == nominal->score.render();
    run.check("rerun_identical", identical,
              identical ? "second run reproduces alerts and scores"
                        : "second run diverges\n--- first ---\n" +
                              nominal->score.render() + "--- second ---\n" +
                              rerun.score.render());
  }
  return run.finish();
}
