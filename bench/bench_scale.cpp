// E-scale — scale plane: scheduling time and makespan vs. grid size and
// AFG width, optimized scheduler vs. the retained naive reference.
//
// Two sweeps, both over generated vdce::scale inputs:
//
//   * grid sweep — S×H grows from 2×4 to 32×32 with a fixed 256-task
//     layered AFG; every candidate site participates (k_nearest = S-1);
//   * AFG sweep — a fixed 8×16 grid with workloads from 64 to 512 tasks
//     (bounded-fan-in random DAGs) and layer widths from 4 to 32.
//
// Each configuration times sched::reference::schedule_naive (the frozen
// pre-optimization algorithm) against sched::plan ("vdce-level") and
// verifies the two allocation tables are bit-identical — the speedup is
// only real if the optimized path changes nothing.  Writes BENCH_SCALE.json
// (bench_util.hpp schema).  Checks: every table pair is identical, and the
// largest grid configuration's speedup meets the documented threshold (3x
// full, 2x smoke — see docs/SCALING.md).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "db/site_repository.hpp"
#include "predict/model.hpp"
#include "scale/generate.hpp"
#include "sched/reference.hpp"
#include "sched/strategy.hpp"

namespace {

using namespace vdce;

/// A topology with its per-site repositories and a ready SchedulerContext.
struct Deployment {
  explicit Deployment(scale::GridSpec spec)
      : topology(scale::make_grid(spec)) {
    for (const net::Site& site : topology.sites()) {
      auto repo = std::make_unique<db::SiteRepository>(site.id);
      repo->register_site_hosts(topology);
      repos.push_back(std::move(repo));
    }
    context.topology = &topology;
    for (auto& r : repos) context.repos.push_back(r.get());
    context.predictor = &predictor;
    context.local_site = common::SiteId(0);
    context.k_nearest = topology.site_count() - 1;  // every site bids
  }

  net::Topology topology;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  predict::Predictor predictor;
  sched::SchedulerContext context;
};

bool tables_identical(const sched::ResourceAllocationTable& a,
                      const sched::ResourceAllocationTable& b) {
  if (a.assignments.size() != b.assignments.size()) return false;
  if (a.schedule_length != b.schedule_length) return false;
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    const sched::Assignment& x = a.assignments[i];
    const sched::Assignment& y = b.assignments[i];
    if (x.task != y.task || x.site != y.site || x.hosts != y.hosts ||
        x.predicted_time != y.predicted_time || x.est_start != y.est_start ||
        x.est_finish != y.est_finish) {
      return false;
    }
  }
  return true;
}

struct Measurement {
  double naive_ms = 0.0;
  double opt_ms = 0.0;
  double speedup = 0.0;
  double makespan = 0.0;
  bool identical = false;
};

Measurement measure(Deployment& dep, const afg::Afg& graph, int opt_repeats) {
  Measurement m;
  sched::SchedulingPolicy options;  // availability-aware, paper levels

  double t0 = bench::now_ms();
  auto naive = sched::reference::schedule_naive(graph, dep.context, options);
  m.naive_ms = bench::now_ms() - t0;
  if (!naive) {
    std::fprintf(stderr, "naive schedule failed: %s\n",
                 naive.error().to_string().c_str());
    return m;
  }

  common::Expected<sched::ResourceAllocationTable> optimized =
      common::Error{common::ErrorCode::kInternal, "unset"};
  t0 = bench::now_ms();
  for (int r = 0; r < opt_repeats; ++r) {
    optimized = sched::plan(graph, dep.context, options);
  }
  m.opt_ms = (bench::now_ms() - t0) / opt_repeats;
  if (!optimized) {
    std::fprintf(stderr, "optimized schedule failed: %s\n",
                 optimized.error().to_string().c_str());
    return m;
  }

  m.identical = tables_identical(*naive, *optimized) &&
                naive->scheduler_name == optimized->scheduler_name + "-naive";
  m.speedup = m.opt_ms > 0.0 ? m.naive_ms / m.opt_ms : 0.0;
  m.makespan = optimized->schedule_length;
  return m;
}

struct GridConfig {
  std::size_t sites;
  std::size_t hosts;
  std::size_t tasks;
};

afg::Afg layered_workload(std::size_t tasks, std::size_t width,
                          std::uint64_t seed) {
  scale::WorkloadSpec w;
  w.shape = scale::WorkloadShape::kLayered;
  w.tasks = tasks;
  w.width = width;
  w.edge_density = 0.35;
  w.seed = seed;
  return scale::make_workload(w, "grid-sweep");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "scale", "BENCH_SCALE.json");
  const bool smoke = run.smoke();

  bench::print_title("E-scale", "scheduler scaling: optimized vs naive reference");
  bench::print_note(smoke ? "mode: smoke (small grids; CI signal)"
                          : "mode: full (largest grid 32x32, 512-task AFG)");

  const std::vector<GridConfig> grid_configs =
      smoke ? std::vector<GridConfig>{{2, 4, 48}, {4, 8, 96}, {8, 16, 128}}
            : std::vector<GridConfig>{{2, 4, 256},
                                      {4, 8, 256},
                                      {8, 16, 256},
                                      {16, 32, 256},
                                      {32, 32, 256}};
  const std::vector<std::size_t> afg_tasks =
      smoke ? std::vector<std::size_t>{32, 64}
            : std::vector<std::size_t>{64, 128, 256, 512};
  const std::vector<std::size_t> afg_widths =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{4, 8, 16, 32};
  const double threshold = smoke ? 2.0 : 3.0;
  const int opt_repeats = smoke ? 3 : 5;

  bool all_identical = true;
  const auto timings = [](bench::Run::Row row, const Measurement& m) {
    row.num("naive_ms", m.naive_ms)
        .num("opt_ms", m.opt_ms)
        .num("speedup", m.speedup)
        .num("makespan_s", m.makespan)
        .flag("identical", m.identical);
  };

  // --- grid sweep ---------------------------------------------------------
  double largest_speedup = 0.0;
  for (std::size_t i = 0; i < grid_configs.size(); ++i) {
    const GridConfig& cfg = grid_configs[i];
    scale::GridSpec g;
    g.sites = cfg.sites;
    g.hosts_per_site = cfg.hosts;
    g.seed = 11 + i;
    Deployment dep(g);
    afg::Afg graph = layered_workload(cfg.tasks, 16, 101 + i);
    Measurement m = measure(dep, graph, opt_repeats);
    all_identical = all_identical && m.identical;
    largest_speedup = m.speedup;  // configs grow; last one is largest
    timings(run.row("grid_sweep")
                .num("sites", cfg.sites)
                .num("hosts_per_site", cfg.hosts)
                .num("tasks", cfg.tasks),
            m);
  }
  run.table("grid_sweep");

  // --- AFG sweep ----------------------------------------------------------
  {
    scale::GridSpec g;
    g.sites = 8;
    g.hosts_per_site = 16;
    g.seed = 77;
    Deployment dep(g);
    for (std::size_t tasks : afg_tasks) {
      scale::WorkloadSpec w;
      w.shape = scale::WorkloadShape::kRandomDag;
      w.tasks = tasks;
      w.max_fan_in = 6;
      w.seed = 500 + tasks;
      afg::Afg graph = scale::make_workload(w, "afg-sweep");
      Measurement m = measure(dep, graph, opt_repeats);
      all_identical = all_identical && m.identical;
      timings(
          run.row("afg_sweep").str("shape", "randomdag").num("tasks", tasks),
          m);
    }
    const std::size_t width_tasks = smoke ? 64 : 256;
    for (std::size_t width : afg_widths) {
      afg::Afg graph = layered_workload(width_tasks, width, 900 + width);
      Measurement m = measure(dep, graph, opt_repeats);
      all_identical = all_identical && m.identical;
      timings(run.row("afg_sweep")
                  .str("shape", "layered")
                  .num("tasks", width_tasks)
                  .num("width", width),
              m);
    }
  }
  run.table("afg_sweep");

  run.row("summary")
      .num("threshold_speedup", threshold)
      .num("largest_grid_speedup", largest_speedup)
      .flag("all_identical", all_identical);
  run.check("identical", all_identical,
            "optimized schedules vs the naive reference");
  run.check("speedup", largest_speedup >= threshold,
            bench::strf("largest-grid speedup %.1fx, floor %.1fx; see "
                        "docs/SCALING.md",
                        largest_speedup, threshold));
  return run.finish();
}
