// E4 — §4.1: the Group Manager's significant-change filter trades Site
// Manager traffic against database freshness.
//
// Sweeps the filter threshold on a live testbed with drifting load and
// reports: raw monitor reports, reports forwarded to the Site Manager
// (the filter's output), wire bytes, and the staleness of the resource
// database (mean |db load - true load| sampled at the end).
//
// Second section: the cost of the observability layer itself.  The same
// monitored testbed runs with observability off (flight recorder disabled),
// off (flight recorder on — the default), metrics only, metrics + the
// health plane, and metrics + full tracing; the wall-clock deltas are the
// per-config overhead.  This is the bench that backs docs/OBSERVABILITY.md's
// zero-cost claims, including "the always-on flight recorder has no
// measurable idle overhead", and that measures the health plane's cost.
//
// Writes BENCH_MONITORING_OVERHEAD.json (bench_util.hpp schema; --smoke
// shortens the horizon).  Check: the health row stays under
// max(1.05 x, +30 ms) of metrics-only.  Runs take a few ms, so the 30 ms
// floor decides: the check catches a gross regression, not a 5% one.
#include <cmath>
#include <cstring>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "vdce/vdce.hpp"

namespace {

/// Wall-clock milliseconds of `run_for(horizon)` on a fresh monitored
/// testbed under `options`; best of `reps` to shave scheduler noise.
double timed_run_ms(vdce::EnvironmentOptions options, double horizon,
                    int reps) {
  using namespace vdce;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    TestbedSpec spec;
    spec.sites = 2;
    spec.hosts_per_site = 8;
    VdceEnvironment env(make_testbed(spec), options);
    env.bring_up();
    const double t0 = vdce::bench::now_ms();
    env.run_for(horizon);
    best = std::min(best, vdce::bench::now_ms() - t0);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "monitoring_overhead",
                 "BENCH_MONITORING_OVERHEAD.json");
  const bool smoke = run.smoke();
  const double horizon = smoke ? 20.0 : 120.0;
  const int reps = smoke ? 1 : 3;

  bench::print_title("E4", "significant-change filter: traffic vs staleness");
  bench::print_note(
      bench::strf("16 hosts, %.0f", horizon) +
      "s of monitoring, background load volatility 0.15,\n"
      "monitor period 1s.  forwarded% = gm.report / mon.report.");

  run.row("summary").num("horizon_s", horizon);

  for (double threshold : {0.0, 0.05, 0.15, 0.3, 0.6, 1.2}) {
    EnvironmentOptions options;
    options.background_load = true;
    options.load.volatility = 0.15;
    options.load.mean_load = 0.5;
    options.runtime.monitor_period = 1.0;
    options.runtime.significant_change = threshold;
    // Cross-check the fabric's per-type message counts against the daemons'
    // own meters (monitor.samples / monitor.reports_forwarded).
    options.metrics.enabled = true;
    TestbedSpec spec;
    spec.sites = 2;
    spec.hosts_per_site = 8;
    VdceEnvironment env(make_testbed(spec), options);
    env.bring_up();
    env.fabric().reset_stats();
    env.run_for(horizon);

    const auto& stats = env.fabric().stats();
    auto count = [&](const char* type) -> std::uint64_t {
      return stats.sent_by_type(type);
    };

    // Staleness: compare every host's db-recorded load to ground truth.
    common::Stats error;
    for (const net::Host& h : env.hosts()) {
      auto rec = env.repo(h.site).resources().find(h.id);
      if (rec && !rec->workload_history.empty()) {
        error.add(std::fabs(rec->current_load() - h.state.cpu_load));
      }
    }

    // The daemon meters and the wire counts must agree: every sample is one
    // mon.report message, every forwarded report one gm.report.
    const std::uint64_t samples = env.metrics().counter_value("monitor.samples");
    const std::uint64_t forwarded =
        env.metrics().counter_value("monitor.reports_forwarded");
    if (samples != count("mon.report") || forwarded != count("gm.report")) {
      bench::print_note("WARNING: obs meters disagree with fabric counts");
    }

    const double forwarded_pct =
        100.0 * static_cast<double>(count("gm.report")) /
        static_cast<double>(count("mon.report"));
    run.row("sweep")
        .num("threshold", threshold)
        .num("mon_reports", count("mon.report"))
        .num("gm_reports", count("gm.report"))
        .num("forwarded_pct", forwarded_pct)
        .num("bytes", stats.bytes_sent)
        .num("db_error", error.empty() ? 0.0 : error.mean());
  }
  run.table("sweep");

  // --- observability overhead ------------------------------------------------
  bench::print_note(
      "\nObservability overhead: identical monitored run under five configs\n"
      "(wall-clock, best of " +
      std::to_string(reps) + "):");

  EnvironmentOptions base;
  base.background_load = true;
  base.load.volatility = 0.15;
  base.load.mean_load = 0.5;
  base.runtime.monitor_period = 1.0;

  EnvironmentOptions off_noflight = base;
  off_noflight.flight.enabled = false;
  EnvironmentOptions off = base;  // flight recorder on: the default
  EnvironmentOptions metrics = base;
  metrics.metrics.enabled = true;
  EnvironmentOptions health = base;
  health.metrics.enabled = true;
  health.health.enabled = true;
  EnvironmentOptions full = base;
  full.metrics.enabled = true;
  full.trace.enabled = true;

  struct Mode {
    const char* name;
    EnvironmentOptions options;
  };
  const Mode modes[] = {{"off_noflight", off_noflight},
                        {"off", off},
                        {"metrics", metrics},
                        {"health", health},
                        {"full_trace", full}};

  double baseline_ms = 0.0;
  double metrics_ms = 0.0;
  double health_ms = 0.0;
  for (std::size_t i = 0; i < std::size(modes); ++i) {
    const double ms = timed_run_ms(modes[i].options, horizon, reps);
    if (i == 0) baseline_ms = ms;
    if (std::strcmp(modes[i].name, "metrics") == 0) metrics_ms = ms;
    if (std::strcmp(modes[i].name, "health") == 0) health_ms = ms;
    const double pct =
        baseline_ms > 0 ? (ms - baseline_ms) / baseline_ms * 100.0 : 0.0;
    run.row("obs_overhead")
        .str("mode", modes[i].name)
        .num("wall_ms", ms)
        .num("overhead_pct", pct);
  }
  run.table("obs_overhead");

  bench::print_note(
      "\nExpected shape: forwarded% falls sharply with the threshold while\n"
      "db error rises — the knee (threshold ~ load noise) is why the paper\n"
      "forwards only 'considerable' changes.  The 'off' row (flight recorder\n"
      "armed, everything else dark) should be indistinguishable from\n"
      "off_noflight: the always-on ring is a guarded handful of stores.\n"
      "The health row (metrics + windowed series + rules + probes) has\n"
      "measured 10-20% over metrics-only in full mode, about the noise of\n"
      "these millisecond runs.  health_budget fails only past max(5%, 30 ms)\n"
      "over metrics-only, so at this length it catches a gross (tenfold)\n"
      "regression, not a few percent; see docs/OBSERVABILITY.md.");

  // Gate the health plane against its documented budget.  Short smoke runs
  // jitter by tens of ms on shared CI hosts, so an absolute floor keeps a
  // 12 ms run from failing on a 1 ms blip.
  const double budget_ms = std::max(metrics_ms * 1.05, metrics_ms + 30.0);
  run.check("health_budget", health_ms <= budget_ms,
            bench::strf("health %.2f ms, budget %.2f ms over metrics %.2f ms",
                        health_ms, budget_ms, metrics_ms));
  return run.finish();
}
