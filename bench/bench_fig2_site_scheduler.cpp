// Figure 2 reproduction: the Site Scheduler Algorithm.
//
// The figure is pseudocode; the reproducible artifact is its behaviour.
// This bench runs the algorithm (both the literal paper objective and the
// availability-aware variant) over random layered DAGs on multi-site
// testbeds, sweeping application size and site count, and reports the
// schedule length it minimizes, against the Fig. 2-relevant ablations:
// local-site-only scheduling (k = 0) and the paper-literal objective.
#include <memory>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "db/site_repository.hpp"
#include "sched/strategy.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

struct Setup {
  net::Topology topology;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  tasklib::TaskRegistry registry;
  predict::Predictor predictor;
  sched::SchedulerContext context;
};

std::unique_ptr<Setup> make_setup(std::size_t sites, std::size_t hosts,
                                  std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  TestbedSpec spec;
  spec.sites = sites;
  spec.hosts_per_site = hosts;
  spec.seed = seed;
  setup->topology = make_testbed(spec);
  tasklib::register_standard_libraries(setup->registry);
  for (const net::Site& site : setup->topology.sites()) {
    auto repo = std::make_unique<db::SiteRepository>(site.id);
    repo->register_site_hosts(setup->topology);
    setup->registry.seed_database(repo->tasks());
    setup->repos.push_back(std::move(repo));
  }
  setup->context.topology = &setup->topology;
  for (auto& r : setup->repos) setup->context.repos.push_back(r.get());
  setup->context.predictor = &setup->predictor;
  setup->context.local_site = common::SiteId(0);
  setup->context.k_nearest = sites - 1;
  return setup;
}

double mean_makespan(const char* strategy,
                     const sched::SchedulerContext& context,
                     std::size_t tasks, int trials) {
  common::Stats stats;
  for (int t = 0; t < trials; ++t) {
    common::Rng rng(1000 + static_cast<std::uint64_t>(t));
    afg::LayeredDagSpec spec;
    spec.tasks = tasks;
    spec.width = 8;
    afg::Afg graph = afg::make_layered_dag(spec, rng);
    sched::SchedulingPolicy policy;
    policy.strategy = strategy;
    auto table = sched::plan(graph, context, policy);
    if (table) stats.add(table->schedule_length);
  }
  return stats.empty() ? -1.0 : stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "fig2_site_scheduler",
                 "BENCH_FIG2_SITE_SCHEDULER.json");
  bench::print_title("Fig. 2", "Site Scheduler Algorithm — schedule length");
  bench::print_note(
      "Mean estimated schedule length (s) over 5 random layered DAGs per "
      "cell.\nvdce-level = availability-aware Fig. 2; vdce-level-paper = "
      "literal Fig. 2\nobjective; vdce-local = no remote sites (ablation of "
      "steps 2-5).");

  constexpr int kTrials = 5;

  {
    auto setup = make_setup(4, 8, 7);
    for (std::size_t tasks : {20u, 50u, 100u, 200u}) {
      bench::Run::Row row = run.row("size_sweep").num("tasks", tasks);
      for (const char* name : {"vdce-level", "vdce-level-paper", "vdce-local",
                               "min-min", "random"}) {
        row.num(name, mean_makespan(name, setup->context, tasks, kTrials));
      }
    }
    std::puts("\n-- 4 sites x 8 hosts, application size sweep --");
    run.table("size_sweep");
  }

  for (std::size_t sites : {1u, 2u, 4u, 8u, 16u}) {
    auto setup = make_setup(sites, 6, 11);
    bench::Run::Row row = run.row("site_sweep").num("sites", sites);
    for (const char* name : {"vdce-level", "vdce-local", "min-min"}) {
      row.num(name, mean_makespan(name, setup->context, 80, kTrials));
    }
  }
  std::puts("\n-- 80-task DAG, site-count sweep (6 hosts/site) --");
  run.table("site_sweep");

  return run.finish();
}
