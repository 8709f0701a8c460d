// E10 — multi-application contention: the environment under offered load.
//
// The paper positions VDCE as a shared campus utility; this bench submits
// streams of applications from one user at Poisson arrivals and measures
// how makespan stretches as the offered load grows — the queueing
// behaviour a shared scheduler must exhibit.  Every arrival goes through
// the environment's own submission pipeline (admission, Fig. 2 scheduling
// against the then-current database state, execution): an app whose
// candidate machines are all held by earlier apps is deferred and retried,
// never dropped.  Deferral moves queueing out of the makespan (startup
// signal -> last completion), so the turnaround (enqueued -> completed) is
// reported beside it.
#include <string>
#include <vector>

#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

constexpr std::size_t kApps = 20;

VdceEnvironment make_environment() {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  TestbedSpec spec;
  spec.sites = 2;
  spec.hosts_per_site = 6;
  spec.seed = 71;
  return VdceEnvironment(make_testbed(spec), options);
}

struct LoadResult {
  common::Stats makespans;
  common::Stats turnarounds;
  std::uint64_t deferred = 0;
  std::uint64_t peak_in_flight = 0;
  std::string failure;  ///< first rejected, failed or undrained submission
};

LoadResult run_offered_load(double mean_interarrival) {
  VdceEnvironment env = make_environment();
  env.bring_up();
  env.add_user("u", "p");
  auto session = env.login(common::SiteId(0), "u", "p").value();
  RunOptions run_options;
  run_options.real_kernels = false;

  LoadResult result;
  common::Rng arrivals(55);
  std::vector<AppHandle> handles;
  double at = env.now();
  for (std::size_t i = 0; i < kApps; ++i) {
    env.engine().run_until(at);
    const std::string name = "app" + std::to_string(500 + i);
    auto handle = env.submit_application(
        afg::make_fork_join(4, 2, 800, 1e5, name), session, run_options);
    if (handle) {
      handles.push_back(*handle);
    } else if (result.failure.empty()) {
      result.failure = name + ": " + handle.error().to_string();
    }
    at += arrivals.exponential(mean_interarrival);
  }
  if (common::Status drained = env.drain(); !drained.ok()) {
    result.failure = drained.error().to_string();
  }

  for (AppHandle h : handles) {
    auto report = env.report(h);
    if (report && report->success) {
      result.makespans.add(report->makespan());
      result.turnarounds.add(report->completed - report->enqueued);
    } else if (result.failure.empty()) {
      result.failure = report ? report->failure_reason
                              : report.error().to_string();
    }
  }
  result.deferred = env.tenancy_stats().deferred;
  result.peak_in_flight = env.tenancy_stats().peak_in_flight;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "contention", "BENCH_CONTENTION.json");
  bench::print_title("E10", "multi-application contention");
  bench::print_note(
      "20 fork-join apps (4x2, 800 MFLOP/task) from one site, Poisson\n"
      "arrivals; 2 sites x 6 hosts.  stretch = mean makespan / solo\n"
      "makespan; turnaround = enqueued -> completed.");

  // Solo baseline.
  double solo = 0.0;
  {
    VdceEnvironment env = make_environment();
    env.bring_up();
    env.add_user("u", "p");
    auto session = env.login(common::SiteId(0), "u", "p").value();
    RunOptions run_options;
    run_options.real_kernels = false;
    auto report = env.run_application(afg::make_fork_join(4, 2, 800, 1e5),
                                      session, run_options);
    const bool ok = report && report->success;
    run.check("solo", ok,
              ok       ? "the solo baseline completed"
              : report ? report->failure_reason
                       : report.error().to_string());
    if (ok) solo = report->makespan();
  }
  run.row("summary").num("apps", kApps).num("solo_makespan_s", solo);

  std::string incomplete;
  for (double interarrival : {60.0, 20.0, 10.0, 5.0, 2.0}) {
    const LoadResult r = run_offered_load(interarrival);
    const std::size_t completed = r.makespans.count();
    if (completed < kApps) {
      incomplete += bench::strf(" %g s: %zu/%zu (%s);", interarrival,
                                completed, kApps, r.failure.c_str());
    }
    const bool any = completed > 0;
    run.row("load_sweep")
        .num("interarrival_s", interarrival)
        .num("completed", completed)
        .num("mean_makespan_s", any ? r.makespans.mean() : 0.0)
        .num("p95_makespan_s", any ? r.makespans.percentile(95) : 0.0)
        .num("stretch", any && solo > 0 ? r.makespans.mean() / solo : 0.0)
        .num("mean_turnaround_s", any ? r.turnarounds.mean() : 0.0)
        .num("p95_turnaround_s", any ? r.turnarounds.percentile(95) : 0.0)
        .num("deferred", r.deferred)
        .num("peak_in_flight", r.peak_in_flight);
  }
  run.table("summary");
  std::puts("");
  run.table("load_sweep");
  run.check("completed", incomplete.empty(),
            incomplete.empty()
                ? bench::strf("all %zu apps completed at every load", kApps)
                : "incomplete at" + incomplete);

  bench::print_note(
      "\nExpected shape: at sparse arrivals stretch ~ 1 (apps rarely\n"
      "overlap); as the interarrival approaches the service time, apps\n"
      "contend for the same best machines and stretch grows — classic\n"
      "queueing, with the scheduler's monitoring feedback damping it.");
  return run.finish();
}
