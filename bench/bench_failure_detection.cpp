// E5 — §4.1: echo-based failure detection.
//
// Sweeps the echo period and the fleet size: for each configuration a
// random non-leader host is killed at a random phase and we measure the
// latency until the site's resource-performance database marks it down,
// plus the standing echo traffic and any false positives under heavy load
// (loaded hosts still answer echoes — the protocol keys on reachability,
// not speed).
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "vdce/vdce.hpp"

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "failure_detection", "BENCH_FAILURE_DETECTION.json");
  bench::print_title("E5", "echo failure detection: latency and overhead");
  bench::print_note(
      "detect latency = kill time -> resource db marks host down; mean over\n"
      "10 kills at random phases.  echo msgs/s counted fleet-wide.");

  for (double period : {0.5, 1.0, 2.0, 4.0}) {
    for (std::size_t hosts : {8u, 32u}) {
      common::Stats latency;
      std::uint64_t echo_messages = 0;
      double observed_seconds = 0.0;
      int false_positives = 0;

      for (int trial = 0; trial < 10; ++trial) {
        EnvironmentOptions options;
        options.runtime.echo_period = period;
        options.background_load = true;
        options.load.mean_load = 1.0;  // heavy load: echoes must still pass
        TestbedSpec spec;
        spec.sites = 1;
        spec.hosts_per_site = hosts;
        spec.seed = 50 + static_cast<std::uint64_t>(trial);
        VdceEnvironment env(make_testbed(spec), options);
        env.bring_up();
        env.run_for(3.0 * period);

        // False positives: nothing should be down yet.
        for (const net::Host& h : env.topology().hosts()) {
          auto rec = env.repo(h.site).resources().find(h.id);
          if (rec && !rec->up) ++false_positives;
        }

        // Kill a random non-leader host at a random phase.
        common::Rng rng(900 + static_cast<std::uint64_t>(trial));
        const net::Site& site = env.topology().site(common::SiteId(0));
        common::HostId victim;
        do {
          victim = site.hosts[rng.pick_index(site.hosts.size())];
        } while (env.topology().group(env.topology().host(victim).group)
                     .leader == victim);
        env.run_for(rng.uniform(0.0, period));
        env.fabric().reset_stats();
        double killed = env.now();
        env.topology().set_host_up(victim, false);
        double detected = -1.0;
        for (int step = 0; step < 400 && detected < 0; ++step) {
          env.run_for(period / 20.0);
          auto rec = env.repo(common::SiteId(0)).resources().find(victim);
          if (rec && !rec->up) detected = env.now();
        }
        if (detected >= 0) latency.add(detected - killed);
        echo_messages += env.fabric().stats().sent_by_type("gm.echo");
        observed_seconds += env.now() - killed;
      }

      run.row("echo_sweep")
          .num("echo_period_s", period)
          .num("hosts", hosts)
          .num("mean_detect_s", latency.mean())
          .num("p95_detect_s", latency.percentile(95))
          .num("echo_msgs_per_s",
               static_cast<double>(echo_messages) / observed_seconds)
          .num("false_positives", false_positives);
    }
  }
  run.table("echo_sweep");

  bench::print_note(
      "\nExpected shape: detection latency ~ 1.5x echo period (uniform kill\n"
      "phase + round close), independent of fleet size; echo traffic scales\n"
      "linearly with hosts and inversely with the period; zero false\n"
      "positives even at mean load 1.0.");
  return run.finish();
}
