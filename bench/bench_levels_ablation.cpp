// A1 — ablation of the §3 priority rule, isolated from placement.
//
// The paper computes task priorities as *computation-only* levels.  Holding
// the entire placement machinery fixed (the availability-aware Fig. 2 loop)
// and swapping only the priority rule answers: how much does the level
// definition matter?
//
//   paper-levels : largest sum of computation costs to an exit (the paper)
//   comm-levels  : levels including mean edge-transfer costs (upward rank)
//   fifo         : no levels at all — ready tasks in insertion order
//
// Swept over graph shapes and two communication regimes (cheap LAN-sized
// edges vs heavy WAN-sized edges) where the rules should diverge most.
#include <memory>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "db/site_repository.hpp"
#include "sched/strategy.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

double mean_makespan(sched::PriorityMode priority,
                     const sched::SchedulerContext& context,
                     const std::string& shape, double edge_bytes) {
  sched::SchedulingPolicy options;
  options.priority = priority;
  common::Stats stats;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    common::Rng rng(300 + seed);
    afg::Afg graph("g");
    if (shape == "layered") {
      afg::LayeredDagSpec spec;
      spec.tasks = 60;
      spec.width = 8;
      spec.min_output_bytes = edge_bytes / 2;
      spec.max_output_bytes = edge_bytes * 2;
      graph = afg::make_layered_dag(spec, rng);
    } else if (shape == "forkjoin") {
      graph = afg::make_fork_join(8, 3, 600, edge_bytes);
    } else {
      graph = afg::make_reduction_tree(16, 500, edge_bytes);
    }
    auto table = sched::plan(graph, context, options);
    if (table) stats.add(table->schedule_length);
  }
  return stats.empty() ? -1.0 : stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "levels_ablation", "BENCH_LEVELS_ABLATION.json");
  bench::print_title("A1", "priority-rule ablation (placement held fixed)");
  bench::print_note(
      "Mean schedule length (s) over 6 seeds; same availability-aware\n"
      "placement loop, only the ready-list priority differs.");

  TestbedSpec tb;
  tb.sites = 4;
  tb.hosts_per_site = 8;
  tb.seed = 31;
  net::Topology topology = make_testbed(tb);
  tasklib::TaskRegistry registry;
  tasklib::register_standard_libraries(registry);
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  for (const net::Site& site : topology.sites()) {
    auto repo = std::make_unique<db::SiteRepository>(site.id);
    repo->register_site_hosts(topology);
    registry.seed_database(repo->tasks());
    repos.push_back(std::move(repo));
  }
  predict::Predictor predictor;
  sched::SchedulerContext context;
  context.topology = &topology;
  for (auto& r : repos) context.repos.push_back(r.get());
  context.predictor = &predictor;
  context.local_site = common::SiteId(0);
  context.k_nearest = 3;

  for (const char* shape : {"layered", "forkjoin", "reduce"}) {
    for (double edge_bytes : {1e4, 5e6}) {
      run.row("shapes")
          .str("shape", shape)
          .num("edge_bytes", edge_bytes)
          .num("paper-levels", mean_makespan(sched::PriorityMode::kPaperLevels,
                                             context, shape, edge_bytes))
          .num("comm-levels", mean_makespan(sched::PriorityMode::kCommLevels,
                                            context, shape, edge_bytes))
          .num("fifo", mean_makespan(sched::PriorityMode::kFifo, context,
                                     shape, edge_bytes));
    }
  }
  run.table("shapes");

  bench::print_note(
      "\nExpected shape: on precedence-rich layered DAGs the paper's levels\n"
      "beat FIFO (critical-path tasks start first); on symmetric shapes\n"
      "(fork-join, reduction) priority barely matters.  Notably, comm-aware\n"
      "levels do NOT improve on computation-only levels here — combined\n"
      "with E1 (HEFT vs vdce-level) this shows HEFT's edge comes from\n"
      "insertion-based placement, not its rank definition, vindicating the\n"
      "paper's simpler priority rule.");
  return run.finish();
}
