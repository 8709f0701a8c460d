// E10 — multi-application contention: the environment under offered load.
//
// The paper positions VDCE as a shared campus utility; this bench submits
// streams of applications from independent users at Poisson arrivals and
// measures how makespan stretches as the offered load grows — the queueing
// behaviour a shared scheduler must exhibit.  Each arrival is scheduled
// against the then-current database state (so later apps see machines the
// earlier ones occupy via monitoring) and executed concurrently on the
// same fabric.
#include <functional>
#include <memory>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "sched/support.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

struct LoadResult {
  double mean_makespan = 0.0;
  double p95_makespan = 0.0;
  double mean_stretch = 0.0;  ///< makespan / solo-run makespan
  int completed = 0;
};

LoadResult run_offered_load(int apps, double mean_interarrival,
                            double solo_makespan) {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  TestbedSpec spec;
  spec.sites = 2;
  spec.hosts_per_site = 6;
  spec.seed = 71;
  VdceEnvironment env(make_testbed(spec), options);
  env.bring_up();
  env.add_user("u", "p");
  auto session = env.login(common::SiteId(0), "u", "p").value();

  runtime::SiteManager& sm = env.site_manager(common::SiteId(0));
  common::Rng arrivals(55);
  common::Stats makespans;
  int completed = 0;

  // Each arrival: schedule with the distributed pipeline, then execute.
  // The submission chain runs in simulated time via engine callbacks.
  struct Submitter {
    VdceEnvironment& env;
    runtime::SiteManager& sm;
    Session& session;
    common::Rng& arrivals;
    common::Stats& makespans;
    int& completed;
    double mean_interarrival;
    int remaining;
    std::uint32_t next_app = 500;

    void submit_next() {
      if (remaining-- == 0) return;
      afg::Afg graph = afg::make_fork_join(4, 2, 800, 1e5,
                                           "app" + std::to_string(next_app));
      common::AppId app(next_app++);
      auto graph_ptr = std::make_shared<const afg::Afg>(std::move(graph));
      sm.schedule_application(
          app, graph_ptr, {},
          [this, app, graph_ptr](
              common::Expected<sched::ResourceAllocationTable> table) {
            if (!table) return;
            std::vector<db::TaskPerfRecord> perf;
            for (const afg::TaskNode& n : graph_ptr->tasks()) {
              perf.push_back(*sched::resolve_perf(
                  n, env.repo(common::SiteId(0)).tasks()));
            }
            sm.execute_application(
                app, graph_ptr, std::move(*table), std::move(perf), {}, {},
                [this](runtime::ExecutionReport report) {
                  if (report.success) {
                    makespans.add(report.makespan());
                    ++completed;
                  }
                });
          });
      env.engine().schedule(arrivals.exponential(mean_interarrival),
                            [this] { submit_next(); });
    }
  };

  Submitter submitter{env,      sm,        session, arrivals,
                      makespans, completed, mean_interarrival, apps};
  submitter.submit_next();
  env.run_for(mean_interarrival * apps + 600.0);

  LoadResult result;
  result.completed = completed;
  if (!makespans.empty()) {
    result.mean_makespan = makespans.mean();
    result.p95_makespan = makespans.percentile(95);
    result.mean_stretch = makespans.mean() / solo_makespan;
  }
  return result;
}

}  // namespace

int main() {
  using namespace vdce;
  bench::print_title("E10", "multi-application contention");
  bench::print_note(
      "20 fork-join apps (4x2, 800 MFLOP/task) from one site, Poisson\n"
      "arrivals; 2 sites x 6 hosts.  stretch = makespan / solo makespan.");

  // Solo baseline.
  double solo;
  {
    EnvironmentOptions options;
    options.runtime.exec_noise_cv = 0.0;
    TestbedSpec spec;
    spec.sites = 2;
    spec.hosts_per_site = 6;
    spec.seed = 71;
    VdceEnvironment env(make_testbed(spec), options);
    env.bring_up();
    env.add_user("u", "p");
    auto session = env.login(common::SiteId(0), "u", "p").value();
    afg::Afg graph = afg::make_fork_join(4, 2, 800, 1e5);
    RunOptions run;
    run.real_kernels = false;
    auto report = env.run_application(graph, session, run);
    if (!report || !report->success) return 1;
    solo = report->makespan();
  }

  bench::Table table({"mean interarrival (s)", "completed", "mean makespan",
                      "p95 makespan", "stretch"});
  for (double interarrival : {60.0, 20.0, 10.0, 5.0, 2.0}) {
    LoadResult r = run_offered_load(20, interarrival, solo);
    table.add_row({bench::Table::num(interarrival, 0),
                   std::to_string(r.completed),
                   bench::Table::num(r.mean_makespan, 2),
                   bench::Table::num(r.p95_makespan, 2),
                   bench::Table::num(r.mean_stretch, 2) + "x"});
    if (r.completed < 20) return 1;
  }
  table.print();

  std::printf("\nsolo makespan: %.2fs\n", solo);
  bench::print_note(
      "Expected shape: at sparse arrivals stretch ~ 1 (apps rarely\n"
      "overlap); as the interarrival approaches the service time, apps\n"
      "contend for the same best machines and stretch grows — classic\n"
      "queueing, with the scheduler's monitoring feedback damping it.");
  return 0;
}
