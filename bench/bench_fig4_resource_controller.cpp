// Figure 4 reproduction: interactions among the Resource Controller
// components (Monitor daemons -> Group Managers -> Site Manager).
//
// The figure is an architecture diagram; the reproducible artifact is the
// message flow it depicts.  This bench runs the monitoring hierarchy on a
// live testbed with drifting background load and accounts every message by
// type and by hop, demonstrating each numbered interaction from the figure:
// (1) retrieving resource performance parameters, (2) monitoring VDCE
// resources, (3) updating the site repository, (4) sending the resource
// allocation table, (5) inter-site coordination.
#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "vdce/vdce.hpp"

int main() {
  using namespace vdce;
  bench::print_title("Fig. 4", "Resource Controller message flows");

  EnvironmentOptions options;
  options.background_load = true;
  options.load.mean_load = 0.4;
  options.runtime.monitor_period = 1.0;
  options.runtime.echo_period = 2.0;
  TestbedSpec spec;
  spec.sites = 2;
  spec.hosts_per_site = 8;
  VdceEnvironment env(make_testbed(spec), options);
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  // Phase A: 60s of pure monitoring.
  env.fabric().reset_stats();
  env.run_for(60.0);
  auto monitoring = env.fabric().stats();

  // Phase B: an application execution (RAT multicast + exec fan-out), plus
  // a host failure for interaction (5).  Fork-join: wide enough to span
  // machines and sites, so channels and the RAT fan-out are exercised.
  env.fabric().reset_stats();
  afg::Afg graph = afg::make_fork_join(6, 2, 2000, 2e5);
  common::HostId victim = env.topology().site(common::SiteId(1)).hosts[2];
  env.engine().schedule(8.0, [&] { env.topology().set_host_up(victim, false); });
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  auto execution = env.fabric().stats();

  bench::Table table({"interaction (Fig. 4)", "message type", "count"});
  auto row = [&](const char* what, const char* type,
                 const net::FabricStats& stats) {
    table.add_row({what, type, std::to_string(stats.sent_by_type(type))});
  };
  row("(2) monitor -> group mgr", "mon.report", monitoring);
  row("(3) group mgr -> site mgr (filtered)", "gm.report", monitoring);
  row("(2) echo packets", "gm.echo", monitoring);
  row("(2) echo replies", "gm.echo_reply", monitoring);
  row("(2) leader echo (site mgr)", "sm.echo", monitoring);
  row("(4) RAT to sites", "sm.rat", execution);
  row("(4) RAT to group leaders", "sm.rat_gm", execution);
  row("(4) exec requests to app ctrls", "gm.exec", execution);
  row("channel setup + ack", "dm.setup", execution);
  row("startup signal", "sm.start", execution);
  row("task completions", "ac.task_done", execution);
  row("failure report to site mgr", "gm.host_down", execution);
  row("(5) inter-site coordination", "sm.host_down", execution);
  table.print();

  std::printf(
      "\n60s monitoring on 16 hosts: %llu messages, %s on the wire "
      "(filter kept %.1f%% of raw reports)\n",
      static_cast<unsigned long long>(monitoring.sent),
      common::format_bytes(monitoring.bytes_sent).c_str(),
      100.0 *
          static_cast<double>(monitoring.sent_by_type("gm.report")) /
          static_cast<double>(monitoring.sent_by_type("mon.report")));
  std::printf("execution: success=%s, failures survived=%d\n",
              report && report->success ? "yes" : "no",
              report ? report->failures_survived : -1);
  return report && report->success ? 0 : 1;
}
