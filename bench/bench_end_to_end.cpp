// E8 — the full pipeline, end to end: the paper's prototype claim
// ("successfully implemented ... on campus-wide resources that supports the
// application design, scheduling, and runtime aspects").
//
// Runs the two flagship applications — the Figure-1 Linear Equation Solver
// (real matrix kernels, verified answer) and the C3I track pipeline (real
// signal kernels) — across 1/2/4-site deployments and reports scheduling
// time, setup time, makespan, and wire traffic for each.
//
// Writes BENCH_END_TO_END.json (bench_util.hpp schema); `--smoke`
// restricts the sweep to the 1-site deployments.  A failed schedule, a
// failed run or a wrong answer exits 1 on the spot.
#include <cmath>

#include "bench_util.hpp"
#include "vdce/vdce.hpp"

namespace {

using namespace vdce;

common::Expected<afg::Afg> build_les(VdceEnvironment& env, std::size_t n,
                                     common::Rng& rng, tasklib::Matrix& a_out,
                                     tasklib::Vector& b_out) {
  a_out = tasklib::Matrix::random_diag_dominant(n, rng);
  b_out.assign(n, 0.0);
  for (double& v : b_out) v = rng.uniform(-3, 3);
  env.store().put("/users/VDCE/u/matrix_A.dat", tasklib::Value(a_out),
                  a_out.size_bytes());
  env.store().put("/users/VDCE/u/vector_b.dat", tasklib::Value(b_out),
                  static_cast<double>(n * sizeof(double)));
  editor::AppBuilder app("LES");
  auto lu = app.task("LU", "matrix.lu_decomposition")
                .input_file("/users/VDCE/u/matrix_A.dat", a_out.size_bytes())
                .output_data(a_out.size_bytes());
  auto fwd = app.task("Fwd", "matrix.forward_substitution")
                 .output_data(a_out.size_bytes());
  auto bwd = app.task("Bwd", "matrix.backward_substitution")
                 .output_data(static_cast<double>(n * sizeof(double)));
  if (auto port = app.link(lu, fwd); !port) return port.error();
  fwd.input_file("/users/VDCE/u/vector_b.dat",
                 static_cast<double>(n * sizeof(double)));
  if (auto port = app.link(fwd, bwd); !port) return port.error();
  return app.build();
}

common::Expected<afg::Afg> build_c3i(VdceEnvironment& env, common::Rng& rng) {
  const std::size_t samples = 2048;
  std::vector<tasklib::Signal> channels;
  for (int c = 0; c < 4; ++c) {
    channels.push_back(tasklib::make_test_signal(samples, {0.04}, 0.3, rng));
  }
  const double chan_bytes = static_cast<double>(samples * sizeof(double));
  auto taps = tasklib::design_lowpass(0.08, 63).value();
  env.store().put("http://sensors/array", tasklib::Value(channels),
                  4 * chan_bytes);
  env.store().put("http://sensors/steer",
                  tasklib::Value(std::vector<int>{0, 0, 0, 0}), 64);
  env.store().put("/users/VDCE/u/taps", tasklib::Value(taps),
                  static_cast<double>(taps.size() * sizeof(double)));
  env.store().put("/users/VDCE/u/thresh", tasklib::Value(0.4), 8);

  editor::AppBuilder app("C3I");
  auto beam = app.task("Beamform", "signal.beamform")
                  .input_file("http://sensors/array", 4 * chan_bytes)
                  .input_file("http://sensors/steer", 64)
                  .output_data(chan_bytes);
  auto filter =
      app.task("Filter", "signal.fir_filter").output_data(chan_bytes);
  auto detect = app.task("Detect", "signal.detect").output_data(1e4);
  auto fuse = app.task("Energy", "signal.energy").output_data(64);
  if (auto port = app.link(beam, filter); !port) return port.error();
  filter.input_file("/users/VDCE/u/taps",
                    static_cast<double>(taps.size() * sizeof(double)));
  if (auto port = app.link(filter, detect); !port) return port.error();
  detect.input_file("/users/VDCE/u/thresh", 8);
  if (auto port = app.link(filter, fuse); !port) return port.error();
  return app.build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce;
  bench::Run run(argc, argv, "end_to_end", "BENCH_END_TO_END.json");
  bench::print_title("E8", "end-to-end pipeline: LES + C3I across sites");
  bench::print_note(
      "Real kernels; verified outputs.  sched = simulated bid-round time;\n"
      "setup = RAT fan-out + channel setup + staging; makespan = start\n"
      "signal -> last completion.");

  for (std::size_t sites : {1u, 2u, 4u}) {
    if (run.smoke() && sites > 1u) continue;
    EnvironmentOptions options;
    options.runtime.exec_noise_cv = 0.0;
    options.runtime.k_nearest = sites - 1;
    TestbedSpec spec;
    spec.sites = sites;
    spec.hosts_per_site = 6;
    spec.seed = 61;
    for (const char* which : {"LES", "C3I"}) {
      VdceEnvironment env(make_testbed(spec), options);
      env.bring_up();
      env.add_user("u", "p");
      auto session = env.login(common::SiteId(0), "u", "p").value();
      common::Rng rng(8);

      tasklib::Matrix a;
      tasklib::Vector b;
      auto built = std::string(which) == "LES"
                       ? build_les(env, 48, rng, a, b)
                       : build_c3i(env, rng);
      if (!built) {
        std::fprintf(stderr, "%s: %s\n", which,
                     built.error().to_string().c_str());
        return 1;
      }
      const afg::Afg& graph = *built;

      env.fabric().reset_stats();
      double t0 = env.now();
      auto rat = env.schedule(graph, session);
      if (!rat) return 1;
      double sched_time = env.now() - t0;
      auto report = env.execute_with_table(graph, *rat, session, {});
      if (!report || !report->success) return 1;

      bool verified = true;
      if (std::string(which) == "LES") {
        auto x = std::any_cast<tasklib::Vector>(
            report->exit_outputs.at(graph.find_task("Bwd")->value()));
        verified = tasklib::residual_inf(a, x, b) < 1e-8;
      } else {
        auto hits = std::any_cast<std::vector<std::size_t>>(
            report->exit_outputs.at(graph.find_task("Detect")->value()));
        auto strength = std::any_cast<double>(
            report->exit_outputs.at(graph.find_task("Energy")->value()));
        verified = !hits.empty() && strength > 0.0;
      }

      run.row("rows")
          .str("app", which)
          .num("sites", sites)
          .num("sched_s", sched_time)
          .num("setup_s", report->setup_time())
          .num("makespan_s", report->makespan())
          .num("msgs", env.fabric().stats().sent)
          .flag("verified", verified);
      if (!verified) return 1;
    }
  }
  run.table("rows");

  bench::print_note(
      "\nExpected shape: makespan is stable or improves with more sites\n"
      "(better machines to pick from); scheduling time and message counts\n"
      "grow with the candidate-site set — the cost of wide-area operation.");
  return run.finish();
}
