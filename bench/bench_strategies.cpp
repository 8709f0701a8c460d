// E-strategies — the scheduler-strategy plane: a strategy × staleness ×
// workload sensitivity grid over the live simulated runtime.
//
// Every row of the strategy table (docs/SCHEDULING.md) runs the
// same workload corpus end-to-end — submission, Fig. 2 bid gathering,
// placement, simulated execution — under three monitoring-staleness
// settings:
//
//   fresh      monitor_period = 1 s, no stale penalty (repository data is
//              current; the strategies compete on placement quality alone)
//   stale-30   monitor_period = 30 s, stale_after = 60 s (bids are priced
//              on sample data up to 30 s old; the availability-aware
//              objective starts discounting muted hosts)
//   stale-120  monitor_period = 120 s, stale_after = 240 s (the monitor is
//              effectively decoupled from the background-load process)
//
// Background load is on so staleness matters: the ground truth drifts
// between monitor samples and a strategy that chases old data pays for it
// in makespan.  Per cell the bench records the mean makespan and the summed
// critical-path phase decomposition (startup/compute/transfer/wait/
// recovery/completion, obs::causal) so a regression is attributable to a
// phase, not just a number.  Writes BENCH_STRATEGIES.json (bench_util.hpp
// schema; --smoke runs fewer/smaller workloads).  Checks: at least eight
// strategies were measured, every run succeeded, and every run's critical
// path tiled its makespan.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "obs/causal.hpp"
#include "scale/generate.hpp"
#include "sched/strategy.hpp"
#include "vdce/environment.hpp"

namespace {

using namespace vdce;

struct StalenessSetting {
  const char* label;
  common::SimDuration monitor_period;
  common::SimDuration stale_after;  ///< 0 disables the scheduling penalty
};

struct WorkloadCase {
  std::size_t tasks;
  std::size_t width;
  std::uint64_t seed;
};

struct Cell {
  std::size_t cases = 0;
  std::size_t successes = 0;
  double makespan_sum = 0.0;
  double scheduling_sum = 0.0;
  obs::causal::PhaseTotals phases;  ///< summed across the cell's runs
  bool tiled = true;                ///< phases.total() == makespan, per run
};

afg::Afg make_case(const WorkloadCase& wc) {
  scale::WorkloadSpec w;
  w.shape = scale::WorkloadShape::kLayered;
  w.tasks = wc.tasks;
  w.width = wc.width;
  w.edge_density = 0.4;
  w.seed = wc.seed;
  return scale::make_workload(w, "strategy-grid");
}

Cell run_cell(const std::string& strategy, const StalenessSetting& stale,
              const std::vector<WorkloadCase>& cases) {
  Cell cell;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    // A fresh environment per run: every (strategy, staleness, case) cell
    // sees the same topology seed, arrival state, and background-load
    // process, so cells differ only in the axis under study.
    EnvironmentOptions options;
    options.background_load = true;
    options.runtime.monitor_period = stale.monitor_period;
    options.runtime.exec_noise_cv = 0.0;  // deterministic, comparable cells
    scale::GridSpec g;
    g.sites = 4;
    g.hosts_per_site = 6;
    g.seed = 33 + i;
    VdceEnvironment env(scale::make_grid(g), options);
    if (!env.try_bring_up().ok()) return cell;
    env.add_user("bench", "bench");
    auto session = env.login(common::SiteId(0), "bench", "bench");
    if (!session) return cell;

    RunOptions run;
    run.real_kernels = false;
    run.sched.strategy = strategy;
    run.sched.stale_after = stale.stale_after;
    auto report = env.run_application(make_case(cases[i]), *session, run);
    ++cell.cases;
    if (!report || !report->success) {
      std::fprintf(stderr, "run failed: strategy=%s staleness=%s case=%zu%s\n",
                   strategy.c_str(), stale.label, i,
                   report ? "" : (": " + report.error().to_string()).c_str());
      continue;
    }
    ++cell.successes;
    cell.makespan_sum += report->makespan();
    cell.scheduling_sum += report->scheduling_time;
    const obs::causal::CriticalPath cp = report->critical_path();
    if (std::abs(cp.phases.total() - report->makespan()) > 1e-6) {
      cell.tiled = false;
    }
    cell.phases.startup += cp.phases.startup;
    cell.phases.compute += cp.phases.compute;
    cell.phases.transfer += cp.phases.transfer;
    cell.phases.wait += cp.phases.wait;
    cell.phases.recovery += cp.phases.recovery;
    cell.phases.completion += cp.phases.completion;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "strategies", "BENCH_STRATEGIES.json");
  const bool smoke = run.smoke();

  bench::print_title("E-strategies",
                     "strategy x staleness sensitivity grid (live runtime)");
  bench::print_note(smoke ? "mode: smoke (2 workloads per cell)"
                          : "mode: full (4 workloads per cell)");

  const std::vector<StalenessSetting> staleness = {
      {"fresh", 1.0, 0.0},
      {"stale-30", 30.0, 60.0},
      {"stale-120", 120.0, 240.0},
  };
  const std::vector<WorkloadCase> cases =
      smoke ? std::vector<WorkloadCase>{{16, 4, 1201}, {24, 6, 1202}}
            : std::vector<WorkloadCase>{
                  {16, 4, 1201}, {24, 6, 1202}, {40, 8, 1203}, {64, 8, 1204}};

  const auto strategies = sched::strategies();

  bool all_success = true;
  bool all_tiled = true;
  for (const StalenessSetting& stale : staleness) {
    run.row("staleness_settings")
        .str("label", stale.label)
        .num("monitor_period_s", stale.monitor_period)
        .num("stale_after_s", stale.stale_after);
  }

  for (const sched::Strategy& row : strategies) {
    const std::string name(row.name);
    for (const StalenessSetting& stale : staleness) {
      const Cell cell = run_cell(name, stale, cases);
      const bool ok = cell.successes == cases.size() && cell.cases == cases.size();
      all_success = all_success && ok;
      all_tiled = all_tiled && cell.tiled;
      const double n = cell.successes ? double(cell.successes) : 1.0;
      const obs::causal::PhaseTotals& p = cell.phases;
      run.row("grid")
          .str("strategy", name)
          .str("staleness", stale.label)
          .num("cases", cell.cases)
          .num("successes", cell.successes)
          .num("mean_makespan_s", cell.makespan_sum / n)
          .num("mean_scheduling_s", cell.scheduling_sum / n)
          .num("critical_path_phases.startup", p.startup)
          .num("critical_path_phases.compute", p.compute)
          .num("critical_path_phases.transfer", p.transfer)
          .num("critical_path_phases.wait", p.wait)
          .num("critical_path_phases.recovery", p.recovery)
          .num("critical_path_phases.completion", p.completion)
          .num("critical_path_phases.total", p.total())
          .flag("tiled", cell.tiled);
    }
  }
  run.table("grid");

  run.row("summary")
      .num("strategy_count", strategies.size())
      .flag("all_success", all_success)
      .flag("all_tiled", all_tiled);
  run.check("strategy_count", strategies.size() >= 8,
            bench::strf("%zu strategies in the table, need >= 8",
                        strategies.size()));
  run.check("all_success", all_success,
            bench::strf("every run of %zu strategies x %zu staleness "
                        "settings succeeded",
                        strategies.size(), staleness.size()));
  run.check("all_tiled", all_tiled,
            "every critical path tiled its makespan");
  return run.finish();
}
