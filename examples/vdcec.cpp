// vdcec — the VDCE command-line client.
//
// The paper's users reached VDCE through a web browser; this is the
// equivalent terminal front-end over the same pipeline:
//
//   vdcec check  app.afg          parse + validate, print the flow graph
//   vdcec panels app.afg          print every task-properties window
//   vdcec schedule app.afg        schedule on the standard testbed, print RAT
//   vdcec run    app.afg          schedule + execute (timing-only), report
//
// Options:
//   --sites N      testbed size (default 2)
//   --hosts N      hosts per site (default 6)
//   --seed N       testbed seed, and the seed of "random" (default 7)
//   --scheduler S  any row of the strategy table (default vdce-level);
//                  the usage message lists them
//
// A flag without a value, an unknown flag, or a non-numeric count prints
// the usage message and exits 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

int usage() {
  std::fprintf(stderr,
               "usage: vdcec <check|panels|schedule|run> <file.afg>\n"
               "             [--sites N] [--hosts N] [--seed N]\n"
               "             [--scheduler NAME]\n"
               "NAME (default vdce-level):\n");
  for (const sched::Strategy& row : sched::strategies()) {
    std::fprintf(stderr, "  %.*s\n", static_cast<int>(row.name.size()),
                 row.name.data());
  }
  return 2;
}

/// Parse a whole argument as an unsigned count; false on anything else.
template <typename T>
bool parse_count(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

common::Expected<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return common::Error{common::ErrorCode::kIoError, "cannot open " + path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  std::size_t sites = 2, hosts = 6;
  std::uint64_t seed = 7;
  std::string scheduler_name = "vdce-level";
  for (int i = 3; i < argc; i += 2) {
    if (i + 1 == argc) return usage();  // a flag without its value
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--sites") {
      ok = parse_count(value, sites);
    } else if (flag == "--hosts") {
      ok = parse_count(value, hosts);
    } else if (flag == "--seed") {
      ok = parse_count(value, seed);
    } else if (flag == "--scheduler") {
      scheduler_name = value;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }

  auto text = slurp(path);
  if (!text) {
    std::fprintf(stderr, "error: %s\n", text.error().to_string().c_str());
    return 1;
  }
  auto graph = editor::parse_afg(*text);
  if (!graph) {
    std::fprintf(stderr, "parse error: %s\n",
                 graph.error().to_string().c_str());
    return 1;
  }
  auto valid = graph->validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid application: %s\n",
                 valid.error().to_string().c_str());
    return 1;
  }

  if (command == "check") {
    std::puts(editor::render_afg_summary(*graph).c_str());
    std::printf("OK: %zu tasks, %zu edges\n", graph->task_count(),
                graph->edges().size());
    return 0;
  }
  if (command == "panels") {
    for (const afg::TaskNode& t : graph->tasks()) {
      std::puts(editor::render_properties_panel(*graph, t.id).c_str());
    }
    return 0;
  }
  if (command != "schedule" && command != "run") return usage();

  TestbedSpec spec;
  spec.sites = sites;
  spec.hosts_per_site = hosts;
  spec.seed = seed;
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.k_nearest = sites > 0 ? sites - 1 : 0;
  VdceEnvironment env(make_testbed(spec), options);
  env.bring_up();
  env.add_user("cli", "cli");
  auto session = env.login(common::SiteId(0), "cli", "cli").value();

  // Non-default strategies run synchronously against the environment's
  // repositories through sched::plan(); the default uses the full
  // distributed pipeline.
  common::Expected<sched::ResourceAllocationTable> table =
      common::Error{common::ErrorCode::kInternal, "unset"};
  if (scheduler_name == "vdce-level") {
    table = env.schedule(*graph, session);
  } else {
    sched::SchedulerContext ctx;
    ctx.topology = &env.topology();
    for (const net::Site& s : env.topology().sites()) {
      ctx.repos.push_back(&env.repo(s.id));
    }
    ctx.predictor = &env.core().predictor();
    ctx.local_site = session.site;
    ctx.k_nearest = options.runtime.k_nearest;
    sched::SchedulingPolicy policy;
    policy.strategy = scheduler_name;
    policy.seed = seed;
    table = sched::plan(*graph, ctx, policy);
  }
  if (!table) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 table.error().to_string().c_str());
    return 1;
  }
  std::puts(table->describe(*graph).c_str());
  if (command == "schedule") return 0;

  RunOptions run;
  run.real_kernels = false;  // .afg files reference user data we don't have
  auto report = env.execute_with_table(*graph, *table, session, run);
  if (!report) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report.error().to_string().c_str());
    return 1;
  }
  std::puts(report->describe(*graph).c_str());
  return report->success ? 0 : 1;
}
