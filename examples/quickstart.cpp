// Quickstart: the smallest complete VDCE program.
//
// Brings up a two-site environment, authenticates, builds a four-task
// application flow graph with the editor API, runs the full pipeline
// (distributed scheduling -> allocation-table distribution -> channel setup
// -> execution), and prints the resulting schedule and execution report.
#include <cstdio>

#include "vdce/vdce.hpp"

int main() {
  using namespace vdce;

  // 1. A simulated deployment: two campus sites, six hosts each — with the
  //    observability layer on, so the run leaves a trace behind.
  EnvironmentOptions options;
  options.metrics.enabled = true;
  options.trace.enabled = true;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();

  // 2. Accounts live in the user-accounts database; login authenticates
  //    against the site the user connects to.
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  // 3. Build an application flow graph: two independent producers feeding a
  //    combiner, then a finisher (synthetic tasks; see
  //    linear_equation_solver.cpp for real kernels).
  editor::AppBuilder app("quickstart");
  auto left = app.task("producer_left", "synthetic.w800").output_data(2e5);
  auto right = app.task("producer_right", "synthetic.w600").output_data(2e5);
  auto combine = app.task("combine", "synthetic.w400").output_data(5e4);
  auto finish = app.task("finish", "synthetic.w200");
  if (!app.link(left, combine) || !app.link(right, combine) ||
      !app.link(combine, finish)) {
    std::fprintf(stderr, "linking the application graph failed\n");
    return 1;
  }
  afg::Afg graph = app.build().value();

  std::puts(editor::render_afg_summary(graph).c_str());

  // 4. Schedule only (Fig. 2 over the simulated wide-area network)...
  auto table = env.schedule(graph, session);
  if (!table) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 table.error().to_string().c_str());
    return 1;
  }
  std::puts(table->describe(graph).c_str());

  // 5. ...then execute with the same table and print the report.
  RunOptions run;
  run.real_kernels = false;  // timing-only
  auto report = env.execute_with_table(graph, *table, session, run);
  if (!report) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report.error().to_string().c_str());
    return 1;
  }
  std::puts(report->describe(graph).c_str());

  // 6. Where did the simulated seconds go?  The breakdown splits the
  //    end-to-end latency into phases; the causal critical path says which
  //    chain of tasks (and which waits between them) set the makespan.
  auto phases = report->breakdown();
  std::printf("setup %.3fs | execution %.3fs | task-busy %.3fs\n",
              phases.setup, phases.execution, phases.task_busy);
  auto critical = report->critical_path();
  std::printf(
      "critical path: %zu hops through %zu tasks — compute %.3fs, "
      "transfer+wait %.3fs, completion %.3fs\n",
      critical.hops.size(), critical.task_chain.size(),
      critical.phases.compute,
      critical.phases.startup + critical.phases.transfer +
          critical.phases.wait,
      critical.phases.completion);

  // 7. Export the run: the Chrome trace opens in chrome://tracing or
  //    Perfetto (one process per site, one lane per host); the JSONL export
  //    feeds `vdce-inspect quickstart_trace.jsonl` for offline analysis.
  if (env.trace().write_chrome_trace("quickstart_trace.json").ok() &&
      env.trace().write_jsonl("quickstart_trace.jsonl").ok()) {
    std::printf("wrote quickstart_trace.json + quickstart_trace.jsonl "
                "(%zu trace events)\n",
                env.trace().events().size());
  }
  return report->success ? 0 : 1;
}
