// Wide-area failover: §4.1's failure story, end to end.
//
// A long pipeline runs across the testbed; mid-run one of the machines
// hosting a stage is killed.  Watch the runtime survive it:
//   1. the Group Manager's echo packets go unanswered,
//   2. the host is marked "down" in the resource-performance database,
//   3. the Site Managers broadcast the failure (inter-site coordination),
//   4. the coordinator re-places the stranded tasks (cascading to parents
//      whose cached outputs died with the machine) and re-pulls inputs,
//   5. the application completes with failures_survived > 0.
// The report's describe() prints every recovery event (host down, re-place,
// pin) the runtime took; the same events also reach the JSONL trace and the
// flight recorder when those are enabled.
#include <cstdio>

#include "vdce/vdce.hpp"

int main() {
  using namespace vdce;

  EnvironmentOptions options;
  options.runtime.echo_period = 1.0;
  options.runtime.progress_period = 2.0;
  options.metrics.enabled = true;
  VdceEnvironment env(make_campus_pair(23), options);
  env.bring_up();
  env.add_user("operator", "pw");
  auto session = env.login(common::SiteId(0), "operator", "pw").value();

  // Six heavy stages in a chain: plenty of time to fail a machine mid-run.
  afg::Afg graph = afg::make_chain(6, 4000, 2e5, "long-pipeline");

  auto table = env.schedule(graph, session);
  if (!table) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 table.error().to_string().c_str());
    return 1;
  }
  std::puts(table->describe(graph).c_str());

  // Kill the machine hosting stage 3 (s2) ten simulated seconds in — unless
  // it is the coordinator's own server machine.
  common::HostId victim =
      table->find(graph.find_task("s2").value())->primary_host();
  if (victim == env.topology().site(common::SiteId(0)).server) {
    victim = table->find(graph.find_task("s3").value())->primary_host();
  }
  std::printf(">>> will kill host %u (%s) at t=+10s\n", victim.value(),
              env.topology().host(victim).spec.name.c_str());
  env.engine().schedule(10.0, [&] {
    std::printf(">>> killing host %u at t=%.2fs\n", victim.value(), env.now());
    env.topology().set_host_up(victim, false);
  });

  RunOptions run;
  run.real_kernels = false;
  auto report = env.execute_with_table(graph, *table, session, run);
  if (!report) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report.error().to_string().c_str());
    return 1;
  }
  std::puts(report->describe(graph).c_str());

  auto rec = env.repo(common::SiteId(0)).resources().find(victim);
  std::printf("resource db says host %u up=%s\n", victim.value(),
              rec && rec->up ? "true" : "false");
  std::printf("failures survived: %d, reschedules: %d\n",
              report->failures_survived, report->reschedules);
  std::printf("recovery counters: marked_down=%llu reschedules=%llu\n",
              static_cast<unsigned long long>(
                  env.metrics().counter_value("recovery.hosts_marked_down")),
              static_cast<unsigned long long>(
                  env.metrics().counter_value("recovery.reschedules")));
  return report->success && report->failures_survived > 0 ? 0 : 1;
}
