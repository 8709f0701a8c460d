// E16 — deadline/budget tightness sweep (docs/ECONOMY.md): completion,
// admission, and spend vs. constraint tightness over Nimrod/G-style
// parameter-sweep workloads.
//
// Phase 1 probes every application unconstrained (a budget no schedule can
// exhaust) to learn its baseline quote S0 and makespan M0.  Phase 2 replays
// the fleet under each tightness factor f:
//
//   * budget mode (dbc-time):   budget = f * S0, no deadline.  Tight
//     budgets are rejected up front with the typed kBudgetExceeded error;
//     loose budgets must always admit, and every admitted run's quoted
//     spend must respect its budget.
//   * deadline mode (dbc-cost): deadline = f * M0, budget loose (4 * S0).
//     Runs always complete (the deadline stays advisory here); the
//     deadline-met rate rises with f while dbc-cost trades the slack for
//     cheaper placements.
//
// Writes BENCH_ECONOMY.json (bench_util.hpp schema; --smoke runs
// fewer/smaller configurations).  Checks: no admitted run overspends its
// budget, loose constraints (f >= 1.25) are never rejected as
// unaffordable, every admitted run completes, and the flagship
// configuration replays byte-identically.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace {

using namespace vdce;

/// The fleet: parameter-sweep applications of growing width.
std::vector<afg::Afg> fleet(bool smoke) {
  const std::size_t apps = smoke ? 4 : 8;
  std::vector<afg::Afg> graphs;
  for (std::size_t i = 0; i < apps; ++i) {
    scale::WorkloadSpec spec;
    spec.shape = scale::WorkloadShape::kParamSweep;
    spec.tasks = 8 + 2 * i;  // root + sweeps + gather
    spec.seed = 100 + i;
    graphs.push_back(scale::make_workload(spec, "sweep" + std::to_string(i)));
  }
  return graphs;
}

common::Expected<std::unique_ptr<VdceEnvironment>> bring_up(bool smoke,
                                                            bool want_trace) {
  ScaleSpec spec;
  spec.grid.sites = smoke ? 2 : 3;
  spec.grid.hosts_per_site = smoke ? 6 : 8;
  spec.grid.seed = 41;
  spec.options.runtime.exec_noise_cv = 0.0;
  spec.options.trace.enabled = want_trace;
  return VdceEnvironment::make_scale_environment(spec);
}

Session admin_login(VdceEnvironment& env) {
  ScaleSpec spec;
  return env.login(common::SiteId(0), spec.admin_user, spec.admin_password)
      .value();
}

/// Per-application unconstrained baseline: quoted spend and makespan.
struct Baseline {
  double spend = 0.0;
  double makespan = 0.0;
};

std::vector<Baseline> probe_baselines(const std::vector<afg::Afg>& graphs,
                                      bool smoke) {
  std::vector<Baseline> baselines;
  auto env = bring_up(smoke, /*want_trace=*/false);
  if (!env) {
    std::fprintf(stderr, "bring-up failed: %s\n",
                 env.error().to_string().c_str());
    return baselines;
  }
  auto session = admin_login(**env);
  for (const afg::Afg& graph : graphs) {
    RunOptions run;
    run.real_kernels = false;
    run.budget = 1e18;  // unconstrained, but forces the quote into the report
    auto report = (*env)->run_application(graph, session, run);
    Baseline b;
    if (report && report->success) {
      b.spend = report->spend();
      b.makespan = report->makespan();
    } else {
      std::fprintf(stderr, "baseline run failed for %s\n",
                   graph.name().c_str());
    }
    baselines.push_back(b);
  }
  return baselines;
}

struct Measurement {
  std::string mode;  ///< "budget" or "deadline"
  double factor = 0.0;
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t budget_rejections = 0;
  std::size_t deadline_met = 0;
  double spend_total = 0.0;
  double overspend_max = 0.0;  ///< max(spend - budget) over admitted runs
  double wall_ms = 0.0;
  std::string trace_jsonl;  ///< only when `want_trace`
};

Measurement measure(const std::string& mode, double factor,
                    const std::vector<afg::Afg>& graphs,
                    const std::vector<Baseline>& baselines, bool smoke,
                    bool want_trace) {
  Measurement m;
  m.mode = mode;
  m.factor = factor;
  const double t0 = bench::now_ms();
  auto env = bring_up(smoke, want_trace);
  if (!env) {
    std::fprintf(stderr, "bring-up failed: %s\n",
                 env.error().to_string().c_str());
    return m;
  }
  auto session = admin_login(**env);
  std::string narratives;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    RunOptions run;
    run.real_kernels = false;
    if (mode == "budget") {
      run.sched.strategy = "dbc-time";
      run.budget = baselines[i].spend * factor;
    } else {
      run.sched.strategy = "dbc-cost";
      run.deadline = baselines[i].makespan * factor;
      run.budget = baselines[i].spend * 4.0;  // loose: spend stays quoted
    }
    ++m.submitted;
    auto report = (*env)->run_application(graphs[i], session, run);
    if (!report) {
      if (report.error().code == common::ErrorCode::kBudgetExceeded) {
        ++m.budget_rejections;
      } else {
        std::fprintf(stderr, "unexpected rejection: %s\n",
                     report.error().to_string().c_str());
      }
      continue;
    }
    ++m.admitted;
    if (report->success) ++m.completed;
    if (report->deadline_met()) ++m.deadline_met;
    m.spend_total += report->spend();
    m.overspend_max =
        std::max(m.overspend_max, report->spend() - report->budget);
    narratives += report->describe(graphs[i]);
  }
  if (want_trace) m.trace_jsonl = (*env)->trace().to_jsonl() + narratives;
  m.wall_ms = bench::now_ms() - t0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "economy", "BENCH_ECONOMY.json");
  const bool smoke = run.smoke();

  bench::print_title("E16",
                     "economy plane: completion and spend vs. deadline/budget "
                     "tightness");
  bench::print_note(
      "Each application is probed unconstrained for its baseline quote S0 and\n"
      "makespan M0, then replayed under budget = f*S0 (dbc-time) and\n"
      "deadline = f*M0 (dbc-cost).  Tight budgets reject up front with the\n"
      "typed kBudgetExceeded error; admitted runs must never overspend.");

  const std::vector<afg::Afg> graphs = fleet(smoke);
  const std::vector<Baseline> baselines = probe_baselines(graphs, smoke);
  if (baselines.size() != graphs.size()) {
    std::fprintf(stderr, "baseline probe failed\n");
    return 1;
  }

  const std::vector<double> factors =
      smoke ? std::vector<double>{0.3, 1.0, 1.25}
            : std::vector<double>{0.3, 0.6, 1.0, 1.25, 2.0};

  for (std::size_t i = 0; i < baselines.size(); ++i) {
    run.row("baselines")
        .str("app", graphs[i].name())
        .num("spend", baselines[i].spend)
        .num("makespan", baselines[i].makespan);
  }

  bool within_budget = true;        // admitted => spend <= budget
  bool loose_never_rejected = true; // f >= 1.25 => zero budget rejections
  bool admitted_complete = true;    // admitted => success
  for (const std::string mode : {"budget", "deadline"}) {
    for (double factor : factors) {
      Measurement m = measure(mode, factor, graphs, baselines, smoke,
                              /*want_trace=*/false);
      within_budget = within_budget && m.overspend_max <= 0.0;
      admitted_complete = admitted_complete && m.completed == m.admitted;
      // Deadline mode's budget is always loose (4x), so any rejection there
      // is a violation; in budget mode only f >= 1.25 counts as loose.
      if ((mode == "deadline" || factor >= 1.25) && m.budget_rejections > 0) {
        loose_never_rejected = false;
        std::fprintf(stderr,
                     "AFFORDABLE REJECTION: mode=%s factor=%s rejected %zu\n",
                     mode.c_str(), bench::json_num(factor).c_str(),
                     m.budget_rejections);
      }
      run.row("configs")
          .str("mode", m.mode)
          .num("factor", m.factor)
          .num("submitted", m.submitted)
          .num("admitted", m.admitted)
          .num("completed", m.completed)
          .num("budget_rejections", m.budget_rejections)
          .num("deadline_met", m.deadline_met)
          .num("spend_total", m.spend_total)
          .num("overspend_max", m.overspend_max)
          .num("wall_ms", m.wall_ms);
    }
  }

  // Determinism gate: the flagship configuration (exact budget, dbc-time),
  // replayed with tracing, must produce byte-identical traces + narratives.
  const Measurement rep1 =
      measure("budget", 1.0, graphs, baselines, smoke, /*want_trace=*/true);
  const Measurement rep2 =
      measure("budget", 1.0, graphs, baselines, smoke, /*want_trace=*/true);
  const bool deterministic =
      !rep1.trace_jsonl.empty() && rep1.trace_jsonl == rep2.trace_jsonl;

  run.table("configs");
  run.row("summary")
      .flag("within_budget", within_budget)
      .flag("loose_never_rejected", loose_never_rejected)
      .flag("admitted_complete", admitted_complete)
      .flag("deterministic", deterministic);
  run.check("within_budget", within_budget,
            "no admitted run spent more than its budget");
  run.check("loose_never_rejected", loose_never_rejected,
            "no loosely constrained run was rejected as unaffordable");
  run.check("admitted_complete", admitted_complete,
            "every admitted run completed");
  run.check("deterministic", deterministic,
            "exact-budget dbc-time configuration replays byte-identically");
  return run.finish();
}
