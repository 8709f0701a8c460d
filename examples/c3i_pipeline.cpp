// C3I sensor-processing pipeline across two sites.
//
// The paper's Application Editor ships a "C3I (command and control
// applications) library"; this example builds the classic chain those
// applications are made of:
//
//   sense (3 channels, staged as URL inputs) -> beamform -> FIR filter
//     -> detect  (threshold crossings)
//     -> energy  (track-strength fusion)
//
// with real signal kernels, the visualization service sampling host loads,
// and background load enabled so the prediction-driven scheduler has real
// heterogeneity to work against.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "vdce/vdce.hpp"

namespace {

/// Wire `src` to `dst`, or print why not and exit 1.
void link_or_exit(vdce::editor::AppBuilder& app,
                  const vdce::editor::TaskHandle& src,
                  const vdce::editor::TaskHandle& dst) {
  if (auto port = app.link(src, dst); !port) {
    std::fprintf(stderr, "link failed: %s\n",
                 port.error().to_string().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace vdce;

  EnvironmentOptions options;
  options.background_load = true;
  options.load.mean_load = 0.3;
  VdceEnvironment env(make_campus_pair(11), options);
  env.bring_up();
  env.add_user("analyst", "c3i");
  auto session = env.login(common::SiteId(0), "analyst", "c3i").value();

  runtime::VisualizationService viz(env.core());
  viz.start(1.0);

  // Warm up so monitoring history reflects the background load before the
  // scheduler consults it.
  env.run_for(10.0);

  // ---- sensor inputs via URL I/O -----------------------------------------
  common::Rng rng(3);
  const std::size_t samples = 1024;
  std::vector<tasklib::Signal> channels;
  for (int c = 0; c < 3; ++c) {
    channels.push_back(
        tasklib::make_test_signal(samples, {0.05}, /*noise=*/0.4, rng));
  }
  std::vector<int> delays{0, 0, 0};  // broadside steering
  auto taps = tasklib::design_lowpass(0.1, 63).value();

  const double chan_bytes = static_cast<double>(samples * sizeof(double));
  env.store().put("http://sensors.vdce.edu/array0", tasklib::Value(channels),
                  3 * chan_bytes);
  env.store().put("http://sensors.vdce.edu/steering", tasklib::Value(delays),
                  64);
  env.store().put("/users/VDCE/analyst/lowpass.taps", tasklib::Value(taps),
                  static_cast<double>(taps.size() * sizeof(double)));
  env.store().put("/users/VDCE/analyst/threshold.dat", tasklib::Value(0.45),
                  8);

  // ---- the AFG -------------------------------------------------------------
  editor::AppBuilder app("C3I Track Pipeline");
  auto beam = app.task("Beamform", "signal.beamform")
                  .input_file("http://sensors.vdce.edu/array0", 3 * chan_bytes)
                  .input_file("http://sensors.vdce.edu/steering", 64)
                  .output_data(chan_bytes)
                  .request_service("visualization");
  auto filter = app.task("Lowpass_Filter", "signal.fir_filter")
                    .output_data(chan_bytes);
  auto detect = app.task("Detect", "signal.detect").output_data(1e4);
  auto fuse = app.task("Track_Energy", "signal.energy").output_data(64);
  link_or_exit(app, beam, filter);
  filter.input_file("/users/VDCE/analyst/lowpass.taps",
                    static_cast<double>(taps.size() * sizeof(double)));
  link_or_exit(app, filter, detect);
  detect.input_file("/users/VDCE/analyst/threshold.dat", 8);
  link_or_exit(app, filter, fuse);
  afg::Afg graph = app.build().value();

  std::puts(editor::render_afg_summary(graph).c_str());
  std::puts(editor::render_library_menu(env.registry(), "signal").c_str());

  // ---- run -----------------------------------------------------------------
  auto report = env.run_application(graph, session, {});
  if (!report || !report->success) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report ? report->failure_reason.c_str()
                        : report.error().to_string().c_str());
    return 1;
  }
  std::puts(report->describe(graph).c_str());

  // ---- results --------------------------------------------------------------
  auto detect_id = graph.find_task("Detect").value();
  auto fuse_id = graph.find_task("Track_Energy").value();
  auto hits = std::any_cast<std::vector<std::size_t>>(
      report->exit_outputs.at(detect_id.value()));
  auto strength = std::any_cast<double>(report->exit_outputs.at(fuse_id.value()));
  std::printf("detections: %zu threshold crossings; filtered track energy %.1f\n",
              hits.size(), strength);

  viz.stop();
  std::puts(viz.render_workload().c_str());

  // The tone at 0.05 cycles/sample passes the 0.1 lowpass: detections must
  // exist and carry energy.
  return (!hits.empty() && strength > 0.0) ? 0 : 1;
}
