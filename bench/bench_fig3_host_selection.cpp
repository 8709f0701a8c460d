// Figure 3 reproduction: the Host Selection Algorithm.
//
// Reports (a) selection quality — predicted time of the machine Fig. 3
// picks vs. the site mean and vs. random pick, as host-pool size and
// heterogeneity grow; and (b) the algorithm's own cost, since it runs
// Predict(task, R) for every machine of the site on every scheduling
// request.
#include <chrono>
#include <memory>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "db/site_repository.hpp"
#include "sched/host_selection.hpp"
#include "vdce/vdce.hpp"

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "fig3_host_selection",
                 "BENCH_FIG3_HOST_SELECTION.json");
  bench::print_title("Fig. 3", "Host Selection Algorithm — quality and cost");
  bench::print_note(
      "best = predicted exec time of the selected machine; site-mean = mean\n"
      "prediction over all feasible machines (what a random/naive pick pays\n"
      "in expectation); wall = host-selection wall time for a 100-task AFG.");

  std::string failed;
  for (std::size_t hosts : {2u, 4u, 8u, 16u, 32u, 64u}) {
    TestbedSpec spec;
    spec.sites = 1;
    spec.hosts_per_site = hosts;
    spec.seed = 13;
    net::Topology topology = make_testbed(spec);
    tasklib::TaskRegistry registry;
    tasklib::register_standard_libraries(registry);
    db::SiteRepository repo(common::SiteId(0));
    repo.register_site_hosts(topology);
    registry.seed_database(repo.tasks());
    predict::Predictor predictor;

    // Mimic live operation: the machines carry measured background loads.
    common::Rng rng(5);
    for (common::HostId h : topology.site(common::SiteId(0)).hosts) {
      (void)repo.resources().record_workload(
          h, db::WorkloadSample{0.0, rng.uniform(0.0, 1.5), 128.0});
    }

    afg::Afg graph = afg::make_independent(100, 1000);

    auto start = std::chrono::steady_clock::now();
    auto output = sched::HostSelectionAlgorithm::run(
        graph, sched::TaskKinds::of(graph), common::SiteId(0), repo, predictor);
    auto elapsed = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (!output) {
      failed += bench::strf(" %zu hosts: %s;", hosts,
                            output.error().to_string().c_str());
      continue;
    }

    // Quality: compare the selected machine's prediction against the mean
    // over all machines for one representative task.
    const afg::TaskNode& node = graph.task(common::TaskId(0));
    auto perf = sched::resolve_perf(node, repo.tasks());
    auto ranked = sched::HostSelectionAlgorithm::feasible_hosts(
        node, *perf, common::SiteId(0), repo, predictor);
    double mean = 0.0;
    for (const auto& rh : ranked) mean += rh.predicted;
    mean /= static_cast<double>(ranked.size());
    double best = output->bid(common::TaskId(0))->predicted;

    run.row("pool_sweep")
        .num("hosts", hosts)
        .num("best_s", best)
        .num("site_mean_s", mean)
        .num("advantage", mean / best)
        .num("wall_us_per_task", elapsed / 100.0);
  }
  run.table("pool_sweep");
  run.check("host_selection", failed.empty(),
            failed.empty() ? "every pool produced a selection"
                           : "no selection for" + failed);

  bench::print_note(
      "\nExpected shape: the advantage of prediction-driven selection grows\n"
      "with pool size/heterogeneity; the cost of one ranking grows linearly\n"
      "in hosts, and the AFG's 100 tasks are one kind, so they share it.");
  return run.finish();
}
