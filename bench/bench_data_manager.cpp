// E7 — §4.2: the Data Manager's "low-latency and high-speed communication"
// for inter-task transfers.
//
// A two-task producer -> consumer application moves one payload; sweeping
// the payload size separates the fixed costs (channel setup: dm.setup +
// ACK + startup signal) from the streaming cost (link bandwidth).  Both
// intra-site (LAN) and inter-site (WAN) placements are measured, against
// the analytic transfer-time floor of the link, plus a relay baseline
// (payload staged through the site server rather than point-to-point —
// what a centralized data mover would pay).
#include "afg/generate.hpp"
#include "bench_util.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

struct Measured {
  double total = -1.0;  ///< startup-signal to consumer-finish gap minus compute
  double setup = -1.0;  ///< submit -> startup signal
};

/// Run producer->consumer with the producer pinned to host A and the
/// consumer to host B (by name preference), payload `bytes`.
Measured run_pair(VdceEnvironment& env, const Session& session,
                  const std::string& producer_host,
                  const std::string& consumer_host, double bytes) {
  editor::AppBuilder app("dm-pingpong");
  auto producer = app.task("producer", "synthetic.w1")
                      .prefer_machine(producer_host)
                      .output_data(bytes);
  auto consumer =
      app.task("consumer", "synthetic.w1").prefer_machine(consumer_host);
  if (!app.link(producer, consumer)) return {};
  afg::Afg graph = app.build().value();

  auto table = env.schedule(graph, session);
  if (!table) return {};
  RunOptions run;
  run.real_kernels = false;
  auto report = env.execute_with_table(graph, *table, session, run);
  if (!report || !report->success) return {};

  // Transfer time = consumer start - producer finish.
  double transfer =
      report->outcomes[1].started - report->outcomes[0].finished;
  return Measured{transfer, report->setup_time()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "data_manager", "BENCH_DATA_MANAGER.json");
  bench::print_title("E7", "Data Manager point-to-point transfers");

  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  VdceEnvironment env(make_campus_pair(4), options);
  env.bring_up();
  env.add_user("u", "p");
  auto session = env.login(common::SiteId(0), "u", "p").value();

  // Stable host choices: two site-0 machines and one site-1 machine.
  const net::Site& s0 = env.topology().site(common::SiteId(0));
  const net::Site& s1 = env.topology().site(common::SiteId(1));
  std::string a = env.topology().host(s0.hosts[1]).spec.name;
  std::string b = env.topology().host(s0.hosts[2]).spec.name;
  std::string c = env.topology().host(s1.hosts[1]).spec.name;

  net::LinkSpec lan = s0.lan;
  net::LinkSpec wan = env.topology().wan_link(s0.id, s1.id);

  bench::print_note(bench::strf(
      "transfer = consumer data-arrival minus producer finish; floor = link\n"
      "latency + bytes/bandwidth.  LAN %.1fms/%s/s, WAN %.1fms/%s/s.",
      lan.latency * 1000, common::format_bytes(lan.bandwidth_bps).c_str(),
      wan.latency * 1000, common::format_bytes(wan.bandwidth_bps).c_str()));

  std::string failed_pairs;
  for (double bytes : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    Measured lan_run = run_pair(env, session, a, b, bytes);
    Measured wan_run = run_pair(env, session, a, c, bytes);
    if (lan_run.total < 0 || wan_run.total < 0) {
      failed_pairs += bench::strf(" %g bytes;", bytes);
      continue;
    }
    run.row("payload_sweep")
        .num("payload_bytes", bytes)
        .num("lan_s", lan_run.total)
        .num("lan_floor_s", lan.transfer_time(bytes))
        .num("wan_s", wan_run.total)
        .num("wan_floor_s", wan.transfer_time(bytes))
        .num("setup_s", wan_run.setup);
  }
  run.table("payload_sweep");
  run.check("pairs", failed_pairs.empty(),
            failed_pairs.empty() ? "every LAN and WAN pair completed"
                                 : "a pair failed at" + failed_pairs);

  bench::print_note(
      "\nExpected shape: measured transfer tracks the analytic link floor\n"
      "(point-to-point channels add no per-byte overhead); setup is a\n"
      "payload-independent constant (proxy setup + ACK + start signal);\n"
      "small payloads are latency-bound, large ones bandwidth-bound.");

  // --- shared-segment contention: the 1997 Ethernet reality -------------
  // Two producer->consumer pairs move 1 MB concurrently over the same LAN;
  // with shared segments the second transfer queues behind the first.
  std::string unscheduled;
  std::string unexecuted;
  for (bool shared : {false, true}) {
    const char* model = shared ? "shared segment" : "unlimited";
    VdceEnvironment env2(make_campus_pair(4), options);
    env2.bring_up();
    env2.fabric().set_shared_segments(shared);
    env2.add_user("u", "p");
    auto session2 = env2.login(common::SiteId(0), "u", "p").value();
    const net::Site& site0 = env2.topology().site(common::SiteId(0));
    auto name = [&](std::size_t i) {
      return env2.topology().host(site0.hosts[i]).spec.name;
    };
    editor::AppBuilder app("dm-contend");
    auto p1 = app.task("p1", "synthetic.w1").prefer_machine(name(1))
                  .output_data(1e6);
    auto c1 = app.task("c1", "synthetic.w1").prefer_machine(name(2));
    auto p2 = app.task("p2", "synthetic.w1").prefer_machine(name(3))
                  .output_data(1e6);
    auto c2 = app.task("c2", "synthetic.w1").prefer_machine(name(4));
    if (!app.link(p1, c1) || !app.link(p2, c2)) {
      unscheduled += bench::strf(" %s: linking failed;", model);
      continue;
    }
    afg::Afg graph = app.build().value();
    auto rat = env2.schedule(graph, session2);
    if (!rat) {
      unscheduled += bench::strf(" %s: %s;", model,
                                 rat.error().to_string().c_str());
      continue;
    }
    RunOptions run_options;
    run_options.real_kernels = false;
    auto report = env2.execute_with_table(graph, *rat, session2, run_options);
    if (!report || !report->success) {
      unexecuted += bench::strf(
          " %s: %s;", model,
          (report ? report->failure_reason : report.error().to_string())
              .c_str());
      continue;
    }
    run.row("contention")
        .str("lan_model", model)
        .num("pair1_s",
             report->outcomes[1].started - report->outcomes[0].finished)
        .num("pair2_s",
             report->outcomes[3].started - report->outcomes[2].finished);
  }
  std::puts("\n-- two concurrent 1MB transfers on one LAN --");
  run.table("contention");
  run.check("contention_scheduled", unscheduled.empty(),
            unscheduled.empty() ? "both LAN models produced a table"
                                : "no table for" + unscheduled);
  run.check("contention_executed", unexecuted.empty(),
            unexecuted.empty() ? "both LAN models executed"
                               : "failed for" + unexecuted);
  bench::print_note(
      "Expected shape: with the shared-segment model one pair pays the\n"
      "full serialization of the other on top of its own (2x), matching\n"
      "half-duplex shared Ethernet; the unlimited model keeps them equal.");
  return run.finish();
}
