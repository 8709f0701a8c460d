// Unit + integration tests for the observability layer: metric semantics,
// span recording, export determinism, and the VdceEnvironment surface.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "obs/obs.hpp"
#include "vdce/vdce.hpp"

namespace vdce {
namespace {

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, CounterSemantics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("monitor.samples");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("monitor.samples"), 42u);
  EXPECT_EQ(registry.counter_value("never.created"), 0u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSemantics) {
  obs::MetricsRegistry registry;
  registry.gauge("sim.now").set(12.5);
  registry.gauge("sim.now").add(0.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("sim.now"), 13.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("absent"), 0.0);
}

TEST(Metrics, HistogramSemantics) {
  obs::MetricsRegistry registry;
  common::Stats& h = registry.histogram("exec.task_seconds");
  h.add(1.0);
  h.add(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  ASSERT_NE(registry.find_histogram("exec.task_seconds"), nullptr);
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
}

TEST(Metrics, ResetKeepsCachedHandlesValid) {
  obs::MetricsRegistry registry;
  obs::Counter* cached = &registry.counter("fabric.sends");
  cached->add(7);
  registry.reset();
  EXPECT_EQ(cached->value(), 0u);
  cached->add(1);  // handle still points into the registry
  EXPECT_EQ(registry.counter_value("fabric.sends"), 1u);
}

TEST(Metrics, JsonlIsNameOrdered) {
  obs::MetricsRegistry registry;
  registry.counter("zz.last").add(1);
  registry.counter("aa.first").add(2);
  std::string jsonl = registry.to_jsonl();
  auto first = jsonl.find("aa.first");
  auto last = jsonl.find("zz.last");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
}

TEST(Metrics, EmptyHistogramExportsNullQuantilesNeverNaN) {
  obs::MetricsRegistry registry;
  (void)registry.histogram("exec.task_seconds");  // touched but never fed
  const std::string jsonl = registry.to_jsonl();
  EXPECT_NE(
      jsonl.find("\"count\":0,\"mean\":null,\"min\":null,\"p50\":null,"
                 "\"p90\":null,\"p99\":null,\"p999\":null,\"max\":null"),
      std::string::npos)
      << jsonl;
  EXPECT_EQ(jsonl.find("nan"), std::string::npos);
  EXPECT_EQ(jsonl.find("inf"), std::string::npos);
  const std::string om = registry.to_openmetrics();
  EXPECT_EQ(om.find("nan"), std::string::npos);
  EXPECT_EQ(om.find("inf"), std::string::npos);
  // _count/_sum are still present for the empty summary; quantiles are not.
  EXPECT_NE(om.find("exec_task_seconds_count 0"), std::string::npos) << om;
  EXPECT_EQ(om.find("quantile"), std::string::npos);
}

TEST(Metrics, HistogramJsonlCarriesTailQuantiles) {
  obs::MetricsRegistry registry;
  common::Stats& h = registry.histogram("exec.task_seconds");
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  const std::string jsonl = registry.to_jsonl();
  EXPECT_NE(jsonl.find("\"p90\":900"), std::string::npos) << jsonl;
  // Nearest-rank on 1..1000: rank ceil(0.999 * 1000) lands on the last
  // element (the 0.999 literal rounds up in binary).
  EXPECT_NE(jsonl.find("\"p999\":1000"), std::string::npos) << jsonl;
}

TEST(Metrics, OpenMetricsExposition) {
  obs::MetricsRegistry registry;
  registry.counter("fabric.sends").add(3);
  registry.gauge("sim.now").set(1.5);
  registry.histogram("exec.task_seconds").add(2.0);
  const std::string om = registry.to_openmetrics();
  EXPECT_NE(om.find("# TYPE fabric_sends counter\nfabric_sends_total 3\n"),
            std::string::npos)
      << om;
  EXPECT_NE(om.find("sim_now 1.5"), std::string::npos);
  EXPECT_NE(om.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(om.find("exec_task_seconds_count 1"), std::string::npos);
  EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
}

TEST(Stats, EmptyQueriesReturnZeroAndReserveDoesNotCount) {
  common::Stats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  s.reserve(128);
  EXPECT_EQ(s.count(), 0u);
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.percentile(50), 4.0);
}

// ---- trace sink ------------------------------------------------------------

TEST(Trace, DisabledSinkRecordsNothing) {
  obs::TraceSink sink;  // default: disabled
  sink.span("exec", "exec.task", 1.0, 2.0, 3);
  sink.instant("sched", "sched.assign", 1.0, obs::kControlTrack);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(Trace, SpanAndInstantRecording) {
  obs::TraceSink sink(obs::TraceOptions{.enabled = true});
  sink.span("exec", "exec.task", 1.0, 2.5, 3,
            {obs::arg("task", "combine"), obs::arg("app", std::uint32_t{1})});
  sink.instant("monitor", "monitor.echo_round", 4.0, 0);
  ASSERT_EQ(sink.size(), 2u);
  const obs::TraceEvent& span = sink.events()[0];
  EXPECT_EQ(span.phase, obs::TracePhase::kSpan);
  EXPECT_DOUBLE_EQ(span.start, 1.0);
  EXPECT_DOUBLE_EQ(span.duration, 1.5);
  EXPECT_EQ(span.track, 3u);
  EXPECT_EQ(sink.count("exec."), 1u);
  EXPECT_EQ(sink.count("monitor."), 1u);
  EXPECT_EQ(sink.count("fabric."), 0u);
}

TEST(Trace, CapacityCapCountsDrops) {
  obs::TraceSink sink(obs::TraceOptions{.enabled = true, .capacity = 2});
  for (int i = 0; i < 5; ++i) {
    sink.instant("monitor", "monitor.sample", static_cast<double>(i), 0);
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
}

// Minimal JSON well-formedness checker (objects/arrays/strings/numbers/
// literals), enough to prove the Chrome exporter emits parseable JSON.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Trace, ChromeTraceIsValidJson) {
  obs::TraceSink sink(obs::TraceOptions{.enabled = true});
  sink.span("exec", "needs \"escaping\"\n", 0.5, 1.0, 2,
            {obs::arg("note", "a\\b\tc"), obs::arg("n", 1.25)});
  sink.instant("sched", "sched.assign", 2.0, obs::kControlTrack);
  std::string chrome = sink.to_chrome_trace();
  EXPECT_TRUE(JsonScanner(chrome).valid()) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
}

// ---- the environment surface ----------------------------------------------

afg::Afg diamond_graph() {
  editor::AppBuilder app("obs-diamond");
  auto left = app.task("left", "synthetic.w800").output_data(2e5);
  auto right = app.task("right", "synthetic.w600").output_data(2e5);
  auto combine = app.task("combine", "synthetic.w400").output_data(5e4);
  auto finish = app.task("finish", "synthetic.w200");
  EXPECT_TRUE(app.link(left, combine).has_value());
  EXPECT_TRUE(app.link(right, combine).has_value());
  EXPECT_TRUE(app.link(combine, finish).has_value());
  return app.build().value();
}

common::Expected<runtime::ExecutionReport> run_instrumented(
    VdceEnvironment& env) {
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();
  RunOptions run;
  run.real_kernels = false;
  return env.run_application(diamond_graph(), session, run);
}

TEST(Environment, InstrumentedRunProducesSpansAndMeters) {
  EnvironmentOptions options;
  options.metrics.enabled = true;
  options.trace.enabled = true;
  VdceEnvironment env(make_campus_pair(), options);
  auto report = run_instrumented(env);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_TRUE(report->success);

  // One execution span per task, on the host that ran it.
  EXPECT_EQ(env.trace().count("exec.task"), 4u);
  EXPECT_GE(env.trace().count("fabric.transfer"), 4u);
  EXPECT_EQ(env.trace().count("sched.assign"), 1u);
  EXPECT_EQ(env.trace().count("sched.bid_gather"), 1u);
  EXPECT_GE(env.trace().count("sched.host_selection"), 1u);
  EXPECT_EQ(env.trace().count("app.run"), 1u);

  obs::MetricsRegistry& m = env.metrics();
  EXPECT_EQ(m.counter_value("exec.tasks_completed"), 4u);
  EXPECT_EQ(m.counter_value("app.completed"), 1u);
  EXPECT_EQ(m.counter_value("sched.requests"), 1u);
  ASSERT_NE(m.find_histogram("exec.task_seconds"), nullptr);
  EXPECT_EQ(m.find_histogram("exec.task_seconds")->count(), 4u);
  EXPECT_GT(m.gauge_value("sim.events_fired"), 0.0);

  // The phase breakdown is internally consistent.
  auto phases = report->breakdown();
  EXPECT_GT(phases.scheduling, 0.0);
  EXPECT_GT(phases.setup, 0.0);
  EXPECT_GT(phases.execution, 0.0);
  EXPECT_GT(phases.task_busy, 0.0);
  EXPECT_DOUBLE_EQ(phases.execution, report->makespan());
  EXPECT_DOUBLE_EQ(phases.total(),
                   phases.scheduling + phases.setup + phases.execution);

  // The full environment trace still exports as valid Chrome JSON.
  EXPECT_TRUE(JsonScanner(env.trace().to_chrome_trace()).valid());
}

TEST(Environment, DisabledObservabilityStaysEmpty) {
  VdceEnvironment env(make_campus_pair());  // defaults: obs off
  auto report = run_instrumented(env);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_EQ(env.trace().size(), 0u);
  EXPECT_EQ(env.observability().metrics().counter_value("exec.tasks_completed"),
            0u);
}

TEST(Environment, IdenticalSeedsExportByteIdenticalJsonl) {
  std::string exports[2];
  std::string meters[2];
  for (int i = 0; i < 2; ++i) {
    EnvironmentOptions options;
    options.metrics.enabled = true;
    options.trace.enabled = true;
    VdceEnvironment env(make_campus_pair(), options);
    auto report = run_instrumented(env);
    ASSERT_TRUE(report.has_value());
    exports[i] = env.trace().to_jsonl();
    meters[i] = env.metrics().to_jsonl();
  }
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(meters[0], meters[1]);
}

TEST(Environment, CheckedAccessorsReportMisuse) {
  VdceEnvironment env(make_campus_pair());
  EXPECT_FALSE(env.try_repo(common::SiteId(0)).has_value());  // not up yet
  env.bring_up();
  EXPECT_TRUE(env.try_repo(common::SiteId(0)).has_value());
  EXPECT_TRUE(env.try_site_manager(common::SiteId(1)).has_value());
  EXPECT_FALSE(env.try_repo(common::SiteId(99)).has_value());
  EXPECT_FALSE(env.try_site_manager(common::SiteId(99)).has_value());

  EXPECT_EQ(env.sites().size(), 2u);
  EXPECT_FALSE(env.hosts().empty());
  EXPECT_EQ(env.hosts().size(), env.topology().host_count());
}

}  // namespace
}  // namespace vdce
