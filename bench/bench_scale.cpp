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
// only real if the optimized path changes nothing.  It also counts the heap
// allocations of one plan() call (operator new, tests/alloc_counter.hpp)
// per task: a number that does not vary with the host, unlike opt_ms.
// Writes BENCH_SCALE.json (bench_util.hpp schema).  Checks: every table
// pair is identical, the largest grid configuration's speedup meets the
// documented threshold (3x full, 2x smoke), and no configuration allocates
// more than 20% above its committed count per task (docs/SCALING.md §4).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
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
  double allocs_per_task = 0.0;  ///< operator new calls of one plan()
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

  const std::uint64_t before = test::allocation_count();
  common::Expected<sched::ResourceAllocationTable> optimized =
      sched::plan(graph, dep.context, options);
  m.allocs_per_task =
      static_cast<double>(test::allocation_count() - before) /
      static_cast<double>(graph.task_count());
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

/// The gate on allocations: each configuration's count per task as
/// committed in BENCH_SCALE.json (and, for --smoke, measured by the same
/// build), which a run may exceed by at most the 20% of docs/SCALING.md §4.
constexpr double kAllocSlack = 1.2;

struct GridConfig {
  std::size_t sites;
  std::size_t hosts;
  std::size_t tasks;
  double committed_allocs;  ///< per task
};

struct AfgConfig {
  bool layered;       ///< else a bounded-fan-in random DAG
  std::size_t tasks;
  std::size_t width;  ///< layered only
  double committed_allocs;
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
      smoke ? std::vector<GridConfig>{{2, 4, 48, 6.6875},
                                      {4, 8, 96, 8.3125},
                                      {8, 16, 128, 13.328125}}
            : std::vector<GridConfig>{{2, 4, 256, 5.20703125},
                                      {4, 8, 256, 7.33984375},
                                      {8, 16, 256, 11.9609375},
                                      {16, 32, 256, 21.7421875},
                                      {32, 32, 256, 40.3125}};
  const std::vector<AfgConfig> afg_configs =
      smoke ? std::vector<AfgConfig>{{false, 32, 0, 20.15625},
                                     {false, 64, 0, 15.8125},
                                     {true, 64, 4, 15.453125},
                                     {true, 64, 8, 15.625}}
            : std::vector<AfgConfig>{{false, 64, 0, 15.8125},
                                     {false, 128, 0, 13.4375},
                                     {false, 256, 0, 11.66015625},
                                     {false, 512, 0, 10.634765625},
                                     {true, 256, 4, 11.78125},
                                     {true, 256, 8, 11.7421875},
                                     {true, 256, 16, 11.78515625},
                                     {true, 256, 32, 11.79296875}};
  const double threshold = smoke ? 2.0 : 3.0;
  const int opt_repeats = smoke ? 3 : 5;

  bool all_identical = true;
  std::string over_bound;  // configurations past their allocation bound
  const auto timings = [&](bench::Run::Row row, const Measurement& m,
                           double committed_allocs, const std::string& what) {
    const double bound = committed_allocs * kAllocSlack;
    row.num("naive_ms", m.naive_ms)
        .num("opt_ms", m.opt_ms)
        .num("speedup", m.speedup)
        .num("makespan_s", m.makespan)
        .num("allocs_per_task", m.allocs_per_task)
        .num("allocs_bound", bound)
        .flag("identical", m.identical);
    if (m.allocs_per_task > bound) {
      over_bound += bench::strf(" %s %.2f > %.2f;", what.c_str(),
                                m.allocs_per_task, bound);
    }
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
            m, cfg.committed_allocs,
            bench::strf("grid %zux%zu", cfg.sites, cfg.hosts));
  }
  run.table("grid_sweep");

  // --- AFG sweep ----------------------------------------------------------
  {
    scale::GridSpec g;
    g.sites = 8;
    g.hosts_per_site = 16;
    g.seed = 77;
    Deployment dep(g);
    for (const AfgConfig& cfg : afg_configs) {
      if (!cfg.layered) {
        scale::WorkloadSpec w;
        w.shape = scale::WorkloadShape::kRandomDag;
        w.tasks = cfg.tasks;
        w.max_fan_in = 6;
        w.seed = 500 + cfg.tasks;
        afg::Afg graph = scale::make_workload(w, "afg-sweep");
        Measurement m = measure(dep, graph, opt_repeats);
        all_identical = all_identical && m.identical;
        timings(run.row("afg_sweep")
                    .str("shape", "randomdag")
                    .num("tasks", cfg.tasks),
                m, cfg.committed_allocs,
                bench::strf("randomdag %zu", cfg.tasks));
      } else {
        afg::Afg graph =
            layered_workload(cfg.tasks, cfg.width, 900 + cfg.width);
        Measurement m = measure(dep, graph, opt_repeats);
        all_identical = all_identical && m.identical;
        timings(run.row("afg_sweep")
                    .str("shape", "layered")
                    .num("tasks", cfg.tasks)
                    .num("width", cfg.width),
                m, cfg.committed_allocs,
                bench::strf("layered %zu/w%zu", cfg.tasks, cfg.width));
      }
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
  run.check("allocations", over_bound.empty(),
            over_bound.empty()
                ? bench::strf("every configuration within %.0f%% of its "
                              "committed allocations per task",
                              100.0 * (kAllocSlack - 1.0))
                : "allocations per task over the bound:" + over_bound);
  return run.finish();
}
