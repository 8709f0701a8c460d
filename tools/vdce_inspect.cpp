// vdce-inspect: offline causal analysis of VDCE trace exports.
//
// Loads a JSONL trace written by TraceSink::write_jsonl() (or
// VdceEnvironment::trace().write_jsonl()) and, entirely offline:
//
//   * reconstructs every application run recorded in the trace,
//   * prints the causal report (critical path, phase totals, per-host and
//     per-link timelines, what-if slack table) for each,
//   * optionally re-exports the trace as Chrome trace_event JSON
//     (pid = site, tid = host) for chrome://tracing / Perfetto.
//
// Because the offline extractor feeds the same analysis engine the live
// ExecutionReport uses (obs/causal.hpp), the critical path printed here is
// identical to what ExecutionReport::critical_path() reported in-process —
// tests/test_causal.cpp and `vdce-inspect --selftest` assert exactly that.
//
// When the trace was recorded with the health plane enabled
// (EnvironmentOptions::health), the tool also reconstructs the plane
// offline: --series prints every time series (and its OpenMetrics
// exposition), --alerts re-runs the rule engine over the recorded samples
// and verifies the re-evaluated alert stream matches the live one byte for
// byte (obs/health.hpp replay_trace).
//
// Usage:
//   vdce-inspect TRACE.jsonl [--app N] [--chrome OUT.json] [--jsonl OUT.jsonl]
//                            [--series] [--alerts] [--quiet]
//   vdce-inspect --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "vdce/vdce.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s TRACE.jsonl [--app N] [--chrome OUT.json] [--jsonl OUT.jsonl]"
      " [--series] [--alerts] [--quiet]\n"
      "       %s --selftest\n"
      "\n"
      "Offline causal analysis of a VDCE JSONL trace export: per-application\n"
      "critical path, phase breakdown, host/link timelines, and what-if\n"
      "slack.  --chrome re-exports the trace for chrome://tracing (pid =\n"
      "site, tid = host); --jsonl re-renders the parsed trace (byte-identical\n"
      "to the input); --series / --alerts reconstruct the health plane from\n"
      "the trace's health.* records (series summary + OpenMetrics, and the\n"
      "re-evaluated alert log verified against the recorded one); --quiet\n"
      "suppresses the text report.  --selftest runs a traced application\n"
      "in-process and verifies the offline pipeline round-trips it.\n",
      argv0, argv0);
  return 2;
}

/// Shared tail of --series / --alerts: replay the health records and verify
/// the re-evaluated alert stream against the recorded one.
int health_report(const vdce::obs::ParsedTrace& parsed, bool series,
                  bool alerts) {
  namespace health = vdce::obs::health;
  auto replay = health::replay_trace(parsed);
  if (!replay) {
    std::fprintf(stderr, "vdce-inspect: %s\n",
                 replay.error().to_string().c_str());
    return 1;
  }
  vdce::common::SimTime horizon = 0.0;
  for (const auto& e : parsed.events) horizon = std::max(horizon, e.end());

  if (series) {
    const auto& store = replay->plane.all_series();
    std::printf("\nhealth series (%zu):\n", store.size());
    for (const auto& ts : store) {
      std::printf("  %-40s %6llu samples, last %.9g @ %.4f\n",
                  ts->key().label().c_str(),
                  static_cast<unsigned long long>(ts->total()), ts->last(),
                  ts->last_time());
    }
    std::printf("\n%s", replay->plane.to_openmetrics(horizon).c_str());
  }
  if (alerts) {
    std::printf("\nalerts (%zu, %zu recorded):\n", replay->plane.alerts().size(),
                replay->recorded.size());
    std::printf("%s", health::render_alerts(replay->plane.alerts()).c_str());
    if (!replay->matches()) {
      std::fprintf(stderr,
                   "vdce-inspect: replayed alert stream DIVERGES from the "
                   "recorded one\n--- recorded ---\n%s",
                   health::render_alerts(replay->recorded).c_str());
      return 1;
    }
    std::printf("replay verified: re-evaluated alerts match the live run\n");
  }
  return 0;
}

// In-process end-to-end check of the whole offline pipeline: run a traced
// application, export, parse back, and verify (a) the re-render is
// byte-identical and (b) the offline critical path matches the live
// ExecutionReport's hop for hop.  Exercised by ctest as a smoke test, so a
// packaging or format regression fails CI even without the unit suite.
int selftest() {
  using namespace vdce;
  EnvironmentOptions options;
  options.metrics.enabled = true;
  options.trace.enabled = true;
  VdceEnvironment env(make_campus_pair(), options);
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  editor::AppBuilder app("inspect-selftest");
  auto left = app.task("left", "synthetic.w800").output_data(2e5);
  auto right = app.task("right", "synthetic.w600").output_data(2e5);
  auto combine = app.task("combine", "synthetic.w400").output_data(5e4);
  auto finish = app.task("finish", "synthetic.w200");
  if (!app.link(left, combine) || !app.link(right, combine) ||
      !app.link(combine, finish)) {
    std::fprintf(stderr, "selftest: linking the graph failed\n");
    return 1;
  }
  afg::Afg graph = app.build().value();

  auto report = env.run_application(graph, session, RunOptions{});
  if (!report || !report->success) {
    std::fprintf(stderr, "selftest: traced run failed\n");
    return 1;
  }

  const std::string jsonl = env.trace().to_jsonl();
  auto parsed = obs::parse_jsonl(jsonl);
  if (!parsed) {
    std::fprintf(stderr, "selftest: parse failed: %s\n",
                 parsed.error().to_string().c_str());
    return 1;
  }
  if (obs::render_jsonl(parsed->tracks, parsed->events) != jsonl) {
    std::fprintf(stderr, "selftest: re-render is not byte-identical\n");
    return 1;
  }

  auto apps = obs::causal::extract_apps(*parsed);
  if (apps.size() != 1) {
    std::fprintf(stderr, "selftest: expected 1 app in trace, found %zu\n",
                 apps.size());
    return 1;
  }
  const obs::causal::CriticalPath offline =
      obs::causal::critical_path(apps[0]);
  const obs::causal::CriticalPath live = report->critical_path();
  if (offline.task_chain != live.task_chain) {
    std::fprintf(stderr, "selftest: offline task chain diverges from live\n");
    return 1;
  }
  // Offline times carry the export's 9-significant-digit precision.
  if (std::fabs(offline.makespan - live.makespan) > 1e-6 ||
      std::fabs(offline.phases.total() - offline.makespan) > 1e-9) {
    std::fprintf(stderr, "selftest: critical path does not tile makespan\n");
    return 1;
  }
  std::printf("selftest: OK (%zu events, %zu critical hops, makespan %.6fs)\n",
              parsed->events.size(), offline.hops.size(), offline.makespan);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string chrome_out;
  std::string jsonl_out;
  std::uint32_t only_app = vdce::obs::kNoCausalId;
  bool quiet = false;
  bool series = false;
  bool alerts = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--selftest") == 0) return selftest();
    if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--series") == 0) {
      series = true;
    } else if (std::strcmp(a, "--alerts") == 0) {
      alerts = true;
    } else if (std::strcmp(a, "--app") == 0 && i + 1 < argc) {
      only_app = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(a, "--chrome") == 0 && i + 1 < argc) {
      chrome_out = argv[++i];
    } else if (std::strcmp(a, "--jsonl") == 0 && i + 1 < argc) {
      jsonl_out = argv[++i];
    } else if (a[0] == '-') {
      return usage(argv[0]);
    } else if (input.empty()) {
      input = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty()) return usage(argv[0]);

  std::ifstream in(input, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "vdce-inspect: cannot open %s\n", input.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto parsed = vdce::obs::parse_jsonl(text);
  if (!parsed) {
    std::fprintf(stderr, "vdce-inspect: %s\n",
                 parsed.error().to_string().c_str());
    return 1;
  }

  auto write_out = [](const std::string& path, const std::string& content,
                      const char* what) {
    std::ofstream out(path, std::ios::binary);
    if (!out || !(out << content)) {
      std::fprintf(stderr, "vdce-inspect: cannot write %s to %s\n", what,
                   path.c_str());
      return false;
    }
    return true;
  };
  if (!chrome_out.empty() &&
      !write_out(chrome_out,
                 vdce::obs::render_chrome_trace(parsed->tracks, parsed->events),
                 "Chrome trace")) {
    return 1;
  }
  if (!jsonl_out.empty() &&
      !write_out(jsonl_out,
                 vdce::obs::render_jsonl(parsed->tracks, parsed->events),
                 "JSONL")) {
    return 1;
  }

  auto apps = vdce::obs::causal::extract_apps(*parsed);
  std::printf("%s: %zu tracks, %zu events, %zu application run%s\n",
              input.c_str(), parsed->tracks.size(), parsed->events.size(),
              apps.size(), apps.size() == 1 ? "" : "s");
  if (series || alerts) return health_report(*parsed, series, alerts);
  if (apps.empty()) {
    std::printf(
        "no app.run spans found — was the trace recorded with tracing "
        "enabled during an application run?\n");
    return 0;
  }
  if (!quiet) {
    bool matched = false;
    for (const auto& app : apps) {
      if (only_app != vdce::obs::kNoCausalId && app.app != only_app) continue;
      matched = true;
      std::printf("\n%s",
                  vdce::obs::causal::render_report(app, parsed->tracks).c_str());
    }
    if (!matched && only_app != vdce::obs::kNoCausalId) {
      std::fprintf(stderr, "vdce-inspect: no app with id %u in trace\n",
                   only_app);
      return 1;
    }
  }
  return 0;
}
