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

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "fig4_resource_controller",
                 "BENCH_FIG4_RESOURCE_CONTROLLER.json");
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
  RunOptions run_options;
  run_options.real_kernels = false;
  auto report = env.run_application(graph, session, run_options);
  auto execution = env.fabric().stats();

  auto flow = [&](const char* what, const char* type,
                  const net::FabricStats& stats) {
    run.row("flows")
        .str("interaction", what)
        .str("type", type)
        .num("count", stats.sent_by_type(type));
  };
  flow("(2) monitor -> group mgr", "mon.report", monitoring);
  flow("(3) group mgr -> site mgr (filtered)", "gm.report", monitoring);
  flow("(2) echo packets", "gm.echo", monitoring);
  flow("(2) echo replies", "gm.echo_reply", monitoring);
  flow("(2) leader echo (site mgr)", "sm.echo", monitoring);
  flow("(4) RAT to sites", "sm.rat", execution);
  flow("(4) RAT to group leaders", "sm.rat_gm", execution);
  flow("(4) exec requests to app ctrls", "gm.exec", execution);
  flow("channel setup + ack", "dm.setup", execution);
  flow("startup signal", "sm.start", execution);
  flow("task completions", "ac.task_done", execution);
  flow("failure report to site mgr", "gm.host_down", execution);
  flow("(5) inter-site coordination", "sm.host_down", execution);
  run.table("flows");

  const bool success = report && report->success;
  run.row("summary")
      .num("monitoring_msgs", monitoring.sent)
      .num("monitoring_bytes", monitoring.bytes_sent)
      .num("filter_kept_pct",
           100.0 * static_cast<double>(monitoring.sent_by_type("gm.report")) /
               static_cast<double>(monitoring.sent_by_type("mon.report")))
      .flag("success", success)
      .num("failures_survived", report ? report->failures_survived : -1);
  std::puts("\n-- 60s monitoring on 16 hosts, then one execution --");
  run.table("summary");
  run.check("execution", success,
            success  ? "the application survived the host failure"
            : report ? report->failure_reason
                     : report.error().to_string());
  return run.finish();
}
