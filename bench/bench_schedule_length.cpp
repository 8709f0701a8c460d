// E1 — §3 claim: level-based, prediction-driven list scheduling minimizes
// schedule length.
//
// Sweeps graph shapes (layered, fork-join, chain, bag, reduction) over a
// heterogeneous 4-site testbed and reports mean estimated schedule length
// per scheduler, normalized against VDCE.  Includes the level-ablation:
// vdce-level vs min-min (no levels, greedy batch) and vs the
// paper-objective variant.
#include <memory>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "db/site_repository.hpp"
#include "sched/strategy.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

afg::Afg make_shape(const std::string& shape, std::uint64_t seed) {
  common::Rng rng(seed);
  if (shape == "layered") {
    afg::LayeredDagSpec spec;
    spec.tasks = 60;
    spec.width = 8;
    return afg::make_layered_dag(spec, rng);
  }
  if (shape == "forkjoin") return afg::make_fork_join(8, 4, 600, 2e5);
  if (shape == "chain") return afg::make_chain(16, 800, 2e5);
  if (shape == "bag") return afg::make_independent(40, 1200);
  return afg::make_reduction_tree(16, 500, 2e5);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "schedule_length", "BENCH_SCHEDULE_LENGTH.json");
  bench::print_title("E1", "schedule length by scheduler and graph shape");
  bench::print_note(
      "Cells: mean schedule length over 6 seeds, normalized to vdce-level\n"
      "(1.00 = VDCE; higher = worse).  vdce-level_s = absolute VDCE seconds.");

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

  const std::vector<std::string> schedulers{
      "vdce-level", "heft",     "vdce-level-paper", "min-min",
      "min-load",   "round-robin", "random"};
  const std::vector<std::string> shapes{"layered", "forkjoin", "chain", "bag",
                                        "reduce"};

  for (const std::string& shape : shapes) {
    std::vector<double> mean(schedulers.size(), 0.0);
    constexpr int kSeeds = 6;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      afg::Afg graph = make_shape(shape, 100 + seed);
      for (std::size_t s = 0; s < schedulers.size(); ++s) {
        sched::SchedulingPolicy policy;
        policy.strategy = schedulers[s];
        policy.seed = seed;
        auto result = sched::plan(graph, context, policy);
        if (result) mean[s] += result->schedule_length / kSeeds;
      }
    }
    bench::Run::Row row =
        run.row("shapes").str("shape", shape).num("vdce-level_s", mean[0]);
    for (std::size_t s = 0; s < schedulers.size(); ++s) {
      row.num(schedulers[s], mean[s] / mean[0]);
    }
  }
  run.table("shapes");

  bench::print_note(
      "\nExpected shape: heft <= vdce-level <= min-min < min-load <\n"
      "round-robin ~ random on DAGs (heft adds comm-aware ranks +\n"
      "insertion); the paper objective trails the availability-aware\n"
      "variant on wide graphs (it ignores machine occupancy).");
  return run.finish();
}
