// vdce::obs::health — the live health plane: time-series rings and windowed
// aggregates, each rule kind, default-rule detection of injected faults with
// precision/recall scoring, identical-seed alert determinism, off-means-off
// byte identity, and offline replay matching the live run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "afg/generate.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

namespace health = obs::health;

health::SeriesKey key_of(const char* metric, std::int64_t host = -1,
                         std::int64_t site = -1) {
  health::SeriesKey key;
  key.metric = metric;
  key.host = host;
  key.site = site;
  return key;
}

/// A standalone enabled plane with no sinks — the rule-engine unit fixture.
health::HealthPlane make_plane(std::vector<health::HealthRule> rules,
                               std::size_t ring = 64) {
  health::HealthOptions options;
  options.enabled = true;
  options.ring_capacity = ring;
  options.default_rules = false;
  health::HealthPlane plane(std::move(options));
  plane.start(0.0);
  for (health::HealthRule& rule : rules) plane.add_rule(std::move(rule), 0.0);
  return plane;
}

// --- TimeSeries: ring, window aggregates, quantiles -------------------------

TEST(TimeSeries, RingEvictsOldestAndKeepsTotal) {
  health::TimeSeries ts(key_of("m"), 4, 0.0);
  for (int i = 0; i < 10; ++i) ts.observe(i, i * 1.0);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.capacity(), 4u);
  EXPECT_EQ(ts.total(), 10u);
  EXPECT_DOUBLE_EQ(ts.last(), 9.0);
  EXPECT_DOUBLE_EQ(ts.last_time(), 9.0);
  std::vector<double> seen;
  ts.for_each([&](const health::SeriesPoint& p) { seen.push_back(p.value); });
  EXPECT_EQ(seen, (std::vector<double>{6.0, 7.0, 8.0, 9.0}));
}

TEST(TimeSeries, WindowAggregatesExcludeOldPoints) {
  health::TimeSeries ts(key_of("m"), 16, 0.0);
  ts.observe(0.0, 100.0);  // outside the window below
  ts.observe(5.0, 1.0);
  ts.observe(6.0, 3.0);
  ts.observe(7.0, 2.0);
  health::WindowStats w = ts.window(7.0, 2.5);
  EXPECT_EQ(w.count, 3u);
  EXPECT_DOUBLE_EQ(w.mean, 2.0);
  EXPECT_DOUBLE_EQ(w.min, 1.0);
  EXPECT_DOUBLE_EQ(w.max, 3.0);
  EXPECT_DOUBLE_EQ(w.last, 2.0);
  // Slope across the window: (2 - 1) / (7 - 5).
  EXPECT_DOUBLE_EQ(w.rate, 0.5);
  EXPECT_DOUBLE_EQ(w.last_time, 7.0);
  // Empty window: count 0, last_time -1.
  health::WindowStats empty = ts.window(100.0, 1.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.last_time, -1.0);
}

TEST(TimeSeries, CounterIncreaseUsesWindowBaseline) {
  health::TimeSeries ts(key_of("c"), 16, 0.0);
  ts.observe(1.0, 2.0);
  ts.observe(5.0, 3.0);
  ts.observe(9.0, 10.0);
  // Window [4, 9]: baseline is the last point at or before the cutoff.
  EXPECT_DOUBLE_EQ(ts.window(9.0, 5.0).increase, 8.0);
  // Window covering the series' whole life: counter-from-zero.
  EXPECT_DOUBLE_EQ(ts.window(9.0, 20.0).increase, 10.0);
}

TEST(TimeSeries, WindowQuantileIsExactNearestRank) {
  health::TimeSeries ts(key_of("m"), 16, 0.0);
  for (int i = 1; i <= 10; ++i) ts.observe(i, static_cast<double>(i));
  std::vector<double> scratch;
  EXPECT_DOUBLE_EQ(ts.window_quantile(10.0, 100.0, 0.5, scratch), 5.0);
  EXPECT_DOUBLE_EQ(ts.window_quantile(10.0, 100.0, 1.0, scratch), 10.0);
  EXPECT_DOUBLE_EQ(ts.window_quantile(10.0, 100.0, 0.0, scratch), 1.0);
  // Empty window: 0.0, never NaN.
  EXPECT_DOUBLE_EQ(ts.window_quantile(100.0, 1.0, 0.5, scratch), 0.0);
}

// A linear scan over every retained point: the oracle the binary-searched
// window must reproduce field for field.
health::WindowStats naive_window(const health::TimeSeries& ts,
                                 common::SimTime now,
                                 common::SimDuration window) {
  health::WindowStats w;
  const common::SimTime cutoff = now - window;
  double baseline = 0.0;
  bool has_baseline = false;
  double first_value = 0.0;
  common::SimTime first_time = 0.0;
  double sum = 0.0;
  ts.for_each([&](const health::SeriesPoint& p) {
    if (p.time < cutoff) {
      baseline = p.value;
      has_baseline = true;
      return;
    }
    if (w.count == 0) {
      first_value = p.value;
      first_time = p.time;
      w.min = w.max = p.value;
    } else {
      w.min = std::min(w.min, p.value);
      w.max = std::max(w.max, p.value);
    }
    sum += p.value;
    w.last = p.value;
    w.last_time = p.time;
    ++w.count;
  });
  if (w.count > 0) {
    w.mean = sum / static_cast<double>(w.count);
    if (w.count >= 2 && w.last_time > first_time) {
      w.rate = (w.last - first_value) / (w.last_time - first_time);
    }
    if (has_baseline) {
      w.increase = w.last - baseline;
    } else if (cutoff <= ts.created()) {
      w.increase = w.last;
    } else {
      w.increase = w.last - first_value;
    }
  }
  return w;
}

double naive_quantile(const health::TimeSeries& ts, common::SimTime now,
                      common::SimDuration window, double q) {
  std::vector<double> in;
  ts.for_each([&](const health::SeriesPoint& p) {
    if (p.time >= now - window) in.push_back(p.value);
  });
  if (in.empty()) return 0.0;
  std::sort(in.begin(), in.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(in.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), in.size());
  return in[rank - 1];
}

TEST(TimeSeries, WindowMatchesALinearScanOnWrappedRings) {
  std::mt19937_64 rng(20261018);
  std::uniform_int_distribution<int> step(0, 3);  // 0: repeated timestamp
  std::uniform_int_distribution<int> value(-4, 12);
  std::size_t windows = 0;
  std::size_t nonempty = 0;
  for (std::size_t capacity = 2; capacity <= 9; ++capacity) {
    for (int round = 0; round < 40; ++round) {
      const common::SimTime created = 0.5 * (round % 4);
      health::TimeSeries ts(key_of("m"), capacity, created);
      common::SimTime t = created + 0.5 * step(rng);
      const int points = round % 23;
      for (int i = 0; i < points; ++i) {
        ts.observe(t, value(rng) * 0.75);
        t += 0.5 * step(rng);
      }
      // Cutoffs on every retained point, between points, before creation and
      // past the last point; windows of 0 and longer than the whole span.
      std::vector<common::SimTime> cutoffs = {created - 1.0, created,
                                              t + 1.0, -1e9};
      ts.for_each([&](const health::SeriesPoint& p) {
        cutoffs.push_back(p.time);
        cutoffs.push_back(p.time + 0.25);
      });
      for (common::SimTime cutoff : cutoffs) {
        for (common::SimDuration window : {0.0, 0.5, 1.0, 2.5, 1e9}) {
          const common::SimTime now = cutoff + window;
          const health::WindowStats got = ts.window(now, window);
          const health::WindowStats want = naive_window(ts, now, window);
          ++windows;
          if (want.count > 0) ++nonempty;
          EXPECT_EQ(got.count, want.count);
          EXPECT_EQ(got.mean, want.mean);
          EXPECT_EQ(got.min, want.min);
          EXPECT_EQ(got.max, want.max);
          EXPECT_EQ(got.last, want.last);
          EXPECT_EQ(got.rate, want.rate);
          EXPECT_EQ(got.increase, want.increase);
          EXPECT_EQ(got.last_time, want.last_time);
          std::vector<double> scratch;
          for (double q : {0.0, 0.3, 0.5, 0.99, 1.0}) {
            EXPECT_EQ(ts.window_quantile(now, window, q, scratch),
                      naive_quantile(ts, now, window, q));
          }
        }
      }
    }
  }
  // The sweep covered both empty and populated windows.
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(windows, nonempty);
}

// --- rule kinds -------------------------------------------------------------

TEST(HealthRules, ThresholdFiresAndClears) {
  health::HealthRule rule;
  rule.id = "hot";
  rule.kind = health::RuleKind::kThreshold;
  rule.metric = "m";
  rule.threshold = 5.0;
  health::HealthPlane plane = make_plane({rule});
  health::SeriesKey key = key_of("m", 1, 0);
  plane.observe(key, 1.0, 3.0);
  plane.evaluate(1.0);
  EXPECT_TRUE(plane.alerts().empty());
  plane.observe(key, 2.0, 7.0);
  plane.evaluate(2.0);
  ASSERT_EQ(plane.alerts().size(), 1u);
  EXPECT_EQ(plane.alerts()[0].rule, "hot");
  EXPECT_TRUE(plane.alerts()[0].active());
  EXPECT_DOUBLE_EQ(plane.alerts()[0].fired, 2.0);
  EXPECT_DOUBLE_EQ(plane.alerts()[0].value, 7.0);
  plane.observe(key, 3.0, 4.0);
  plane.evaluate(3.0);
  ASSERT_EQ(plane.alerts().size(), 1u);
  EXPECT_FALSE(plane.alerts()[0].active());
  EXPECT_DOUBLE_EQ(plane.alerts()[0].cleared, 3.0);
  EXPECT_EQ(plane.active_alerts(), 0u);
}

TEST(HealthRules, SustainedNeedsEverySampleBeyond) {
  health::HealthRule rule;
  rule.id = "sustained";
  rule.kind = health::RuleKind::kSustained;
  rule.metric = "m";
  rule.threshold = 5.0;
  rule.window = 3.0;
  rule.min_samples = 2;
  health::HealthPlane plane = make_plane({rule});
  health::SeriesKey key = key_of("m", 1, 0);
  plane.observe(key, 1.0, 9.0);
  plane.evaluate(1.0);
  EXPECT_TRUE(plane.alerts().empty());  // only one sample in the window
  plane.observe(key, 1.5, 4.0);         // a dip resets the streak
  plane.evaluate(2.0);
  EXPECT_TRUE(plane.alerts().empty());
  plane.observe(key, 4.4, 8.0);
  plane.observe(key, 5.0, 9.0);  // window [2, 5] holds {8, 9}: all beyond
  plane.evaluate(5.0);
  ASSERT_EQ(plane.alerts().size(), 1u);
  // kSustained reports the window extremum nearest the threshold.
  EXPECT_DOUBLE_EQ(plane.alerts()[0].value, 8.0);
}

TEST(HealthRules, RateOfChangeWatchesTheSlope) {
  health::HealthRule rule;
  rule.id = "climbing";
  rule.kind = health::RuleKind::kRateOfChange;
  rule.metric = "m";
  rule.threshold = 1.0;  // > 1 unit / second
  rule.window = 10.0;
  health::HealthPlane plane = make_plane({rule});
  health::SeriesKey key = key_of("m", 1, 0);
  plane.observe(key, 1.0, 0.0);
  plane.observe(key, 2.0, 0.5);
  plane.evaluate(2.0);
  EXPECT_TRUE(plane.alerts().empty());  // slope 0.5
  plane.observe(key, 3.0, 4.0);
  plane.evaluate(3.0);  // slope (4 - 0) / 2 = 2
  ASSERT_EQ(plane.alerts().size(), 1u);
  EXPECT_DOUBLE_EQ(plane.alerts()[0].value, 2.0);
}

TEST(HealthRules, BurnRateNeedsBothWindows) {
  health::HealthRule rule;
  rule.id = "burn";
  rule.kind = health::RuleKind::kBurnRate;
  rule.metric = "c";
  rule.threshold = 0.5;  // events / second
  rule.window = 4.0;
  rule.long_window = 16.0;
  health::HealthPlane plane = make_plane({rule});
  health::SeriesKey key = key_of("c");
  // Short burst at t=18-20 (short-window rate high) but quiet before it, so
  // the long window stays below threshold: no alert.
  plane.observe_delta(key, 18.0, 2.0);
  plane.observe_delta(key, 19.0, 1.0);
  plane.evaluate(20.0);  // short: 3/4 = 0.75 > 0.5; long: 3/16 < 0.5
  EXPECT_TRUE(plane.alerts().empty());
  // Sustained storm: both windows burn.
  for (int i = 0; i < 12; ++i) {
    plane.observe_delta(key, 20.0 + i, 1.0);
  }
  plane.evaluate(32.0);
  ASSERT_EQ(plane.alerts().size(), 1u);
  EXPECT_EQ(plane.alerts()[0].rule, "burn");
}

TEST(HealthRules, StalenessCountsFromCreationWhenNeverFed) {
  health::HealthRule rule;
  rule.id = "stale";
  rule.kind = health::RuleKind::kStaleness;
  rule.metric = "m";
  rule.window = 5.0;
  health::HealthPlane plane = make_plane({rule});
  // Series created at t=0 and never fed: stale once now - created > 5.
  (void)plane.series(key_of("m", 1, 0), 0.0);
  plane.evaluate(4.0);
  EXPECT_TRUE(plane.alerts().empty());
  plane.evaluate(6.0);
  ASSERT_EQ(plane.alerts().size(), 1u);
  // A fresh sample clears it.
  plane.observe(key_of("m", 1, 0), 7.0, 1.0);
  plane.evaluate(8.0);
  EXPECT_FALSE(plane.alerts()[0].active());
}

TEST(HealthRules, SelectorsScopeRulesToHostAndSite) {
  health::HealthRule rule;
  rule.id = "host-3-only";
  rule.kind = health::RuleKind::kThreshold;
  rule.metric = "m";
  rule.threshold = 1.0;
  rule.host = 3;
  health::HealthPlane plane = make_plane({rule});
  plane.observe(key_of("m", 2, 0), 1.0, 9.0);
  plane.observe(key_of("m", 3, 0), 1.0, 9.0);
  plane.evaluate(1.0);
  ASSERT_EQ(plane.alerts().size(), 1u);
  EXPECT_EQ(plane.alerts()[0].series.host, 3);
}

TEST(HealthPlane, DisabledPlaneRegistersAndEmitsNothing) {
  health::HealthPlane plane;  // default options: disabled
  EXPECT_EQ(plane.series(key_of("m"), 0.0), nullptr);
  plane.observe(key_of("m"), 1.0, 1.0);
  plane.observe_delta(key_of("m"), 1.0);
  plane.evaluate(1.0);
  EXPECT_EQ(plane.series_count(), 0u);
  EXPECT_TRUE(plane.alerts().empty());
  EXPECT_EQ(plane.evaluations(), 0u);
}

TEST(HealthPlane, SeriesCapDropsRegistrationsPastIt) {
  health::HealthOptions options;
  options.enabled = true;
  options.max_series = 2;
  options.default_rules = false;
  health::HealthPlane plane(std::move(options));
  plane.start(0.0);
  EXPECT_NE(plane.series(key_of("a"), 0.0), nullptr);
  EXPECT_NE(plane.series(key_of("b"), 0.0), nullptr);
  EXPECT_EQ(plane.series(key_of("c"), 0.0), nullptr);
  EXPECT_EQ(plane.series_count(), 2u);
}

TEST(HealthPlane, WallRegistrationPastTheCapIsCounted) {
  health::HealthOptions options;
  options.enabled = true;
  options.max_series = 1;
  options.default_rules = false;
  health::HealthPlane plane(std::move(options));
  obs::MetricsRegistry metrics;
  plane.wire(&metrics, nullptr);
  plane.start(0.0);
  EXPECT_NE(plane.series(key_of("a"), 0.0), nullptr);
  EXPECT_EQ(plane.wall_series(key_of("w"), 0.0), nullptr);
  EXPECT_EQ(metrics.counter_value("vdce.health.series_dropped"), 1u);
  EXPECT_EQ(plane.series(key_of("b"), 0.0), nullptr);
  EXPECT_EQ(metrics.counter_value("vdce.health.series_dropped"), 2u);
}

TEST(HealthPlane, AlertsComeInRuleThenRegistrationOrder) {
  auto rule = [](const char* id, const char* metric, std::int64_t host) {
    health::HealthRule r;
    r.id = id;
    r.kind = health::RuleKind::kThreshold;
    r.metric = metric;
    r.threshold = 0.0;
    r.host = host;
    return r;
  };
  health::HealthPlane plane = make_plane({rule("early", "m", -1)});
  health::TimeSeries* m1 = plane.series(key_of("m", 1, 0), 0.0);
  health::TimeSeries* wall = plane.wall_series(key_of("m", 2, 0), 0.0);
  health::TimeSeries* x1 = plane.series(key_of("x", 1, 0), 0.0);
  // Added after their series exist.
  plane.add_rule(rule("late", "m", -1), 0.0);
  plane.add_rule(rule("host-3", "m", 3), 0.0);
  plane.add_rule(rule("x-rule", "x", -1), 0.0);
  plane.observe(m1, 1.0, 1.0);
  plane.observe(wall, 1.0, 1.0);
  plane.observe(x1, 1.0, 1.0);
  // Created after every rule, lazily by observe.
  plane.observe(key_of("m", 3, 0), 1.0, 1.0);
  plane.observe(key_of("m", 4, 0), 1.0, 1.0);
  plane.evaluate(1.0);

  std::vector<std::string> got;
  for (const health::Alert& a : plane.alerts()) {
    got.push_back(a.rule + " " + a.series.label());
  }
  // Rules in insertion order, each rule's series in registration order; the
  // wall series never fires.
  const std::vector<std::string> want = {
      "early m{host=1,site=0}",  "early m{host=3,site=0}",
      "early m{host=4,site=0}",  "late m{host=1,site=0}",
      "late m{host=3,site=0}",   "late m{host=4,site=0}",
      "host-3 m{host=3,site=0}", "x-rule x{host=1,site=0}"};
  EXPECT_EQ(got, want);
}

// --- detection scoring ------------------------------------------------------

TEST(DetectionScore, MatchesAlertsToFaultsByLabelAndWindow) {
  std::vector<health::GroundTruthFault> faults;
  health::GroundTruthFault crash;
  crash.kind = "crash";
  crash.at = 10.0;
  crash.duration = 5.0;
  crash.host = 3;
  crash.site = 0;
  faults.push_back(crash);

  std::vector<health::Alert> alerts;
  health::Alert hit;  // host-labelled, inside the window: detects the crash
  hit.rule = "monitor-stale";
  hit.series = key_of(health::kHostLoad, 3, 0);
  hit.fired = 13.0;
  alerts.push_back(hit);
  health::Alert miss;  // wrong host: a false positive
  miss.rule = "monitor-stale";
  miss.series = key_of(health::kHostLoad, 5, 1);
  miss.fired = 13.0;
  alerts.push_back(miss);
  health::Alert excused;  // control-plane alert overlapping the fault window
  excused.rule = "recovery-storm";
  excused.series = key_of(health::kRecoveryActions);
  excused.fired = 12.0;
  alerts.push_back(excused);

  health::DetectionScore score = health::score_detections(faults, alerts);
  ASSERT_EQ(score.faults.size(), 1u);
  EXPECT_TRUE(score.faults[0].detected);
  EXPECT_DOUBLE_EQ(score.faults[0].latency, 3.0);
  EXPECT_EQ(score.faults[0].rule, "monitor-stale");
  EXPECT_EQ(score.by_class.at("crash").detected, 1u);
  EXPECT_DOUBLE_EQ(score.by_class.at("crash").recall(), 1.0);
  EXPECT_EQ(score.true_positive_alerts, 1u);
  EXPECT_EQ(score.false_positive_alerts, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 0.5);
  EXPECT_FALSE(score.render().empty());
}

TEST(DetectionScore, LateAlertsDoNotCount) {
  health::GroundTruthFault fault;
  fault.kind = "crash";
  fault.at = 10.0;
  fault.duration = 2.0;
  fault.host = 1;
  health::Alert late;
  late.rule = "monitor-stale";
  late.series = key_of(health::kHostLoad, 1, 0);
  late.fired = 100.0;
  health::DetectionOptions options;
  options.max_latency = 10.0;
  health::DetectionScore score =
      health::score_detections({fault}, {late}, options);
  EXPECT_FALSE(score.faults[0].detected);
  EXPECT_EQ(score.false_positive_alerts, 1u);
}

// --- end-to-end: default rules vs injected faults ---------------------------

EnvironmentOptions health_options(chaos::FaultPlan plan,
                                  double sensitivity = 1.0) {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.echo_period = 0.5;
  options.trace.enabled = true;
  options.metrics.enabled = true;
  options.health.enabled = true;
  options.health.sensitivity = sensitivity;
  options.faults = std::move(plan);
  return options;
}

TEST(HealthEndToEnd, CrashFiresMonitorStaleOnTheCrashedHost) {
  chaos::FaultPlan plan;
  plan.name("one-crash").crash(common::HostId(2), 4.0, 12.0);
  VdceEnvironment env(make_campus_pair(13), health_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(12.0);

  bool fired_on_crashed_host = false;
  for (const health::Alert& alert : env.health().alerts()) {
    if (alert.rule == "monitor-stale" && alert.series.host == 2) {
      fired_on_crashed_host = true;
      EXPECT_GE(alert.fired, 4.0);
    }
  }
  EXPECT_TRUE(fired_on_crashed_host)
      << health::render_alerts(env.health().alerts());

  health::DetectionScore score = health::score_detections(
      env.chaos()->ground_truth(), env.health().alerts());
  EXPECT_DOUBLE_EQ(score.by_class.at("crash").recall(), 1.0);
  EXPECT_EQ(score.false_positive_alerts, 0u) << score.render();
}

TEST(HealthEndToEnd, PartitionFiresLinkProbeStale) {
  chaos::FaultPlan plan;
  plan.name("split").partition(0, 1, 3.0, 10.0);
  VdceEnvironment env(make_campus_pair(13), health_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(12.0);

  bool link_alert = false;
  for (const health::Alert& alert : env.health().alerts()) {
    if (alert.rule == "link-probe-stale" && alert.series.link_a == 0 &&
        alert.series.link_b == 1) {
      link_alert = true;
      EXPECT_GE(alert.fired, 3.0);
    }
  }
  EXPECT_TRUE(link_alert) << health::render_alerts(env.health().alerts());

  health::DetectionScore score = health::score_detections(
      env.chaos()->ground_truth(), env.health().alerts());
  EXPECT_DOUBLE_EQ(score.by_class.at("partition").recall(), 1.0);
}

TEST(HealthEndToEnd, StaleMonitorWindowFiresWithoutAHostDown) {
  chaos::FaultPlan plan;
  plan.name("stale").stale_host(common::HostId(3), 2.0, 10.0);
  VdceEnvironment env(make_campus_pair(13), health_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(12.0);

  bool stale_alert = false;
  for (const health::Alert& alert : env.health().alerts()) {
    if (alert.rule == "monitor-stale" && alert.series.host == 3) {
      stale_alert = true;
    }
  }
  EXPECT_TRUE(stale_alert) << health::render_alerts(env.health().alerts());
  // The host never went down — the echo rounds keep answering.
  EXPECT_TRUE(env.topology().host_up(common::HostId(3)));
}

TEST(HealthEndToEnd, QuietRunRaisesNoAlerts) {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.health.enabled = true;
  VdceEnvironment env(make_campus_pair(13), options);
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(20.0);
  EXPECT_TRUE(env.health().alerts().empty())
      << health::render_alerts(env.health().alerts());
  EXPECT_GT(env.health().samples(), 0u);
  EXPECT_GT(env.health().evaluations(), 0u);
}

// --- determinism and byte identity ------------------------------------------

std::string chaotic_alert_log(std::uint64_t seed) {
  chaos::FaultPlan plan;
  plan.name("determinism")
      .seed(seed)
      .crash(common::HostId(2), 2.0, 8.0)
      .partition(0, 1, 5.0, 6.0)
      .stale_host(common::HostId(5), 3.0, 8.0)
      .slow(common::HostId(4), 1.0, 10.0, 4.0);
  EnvironmentOptions options = health_options(std::move(plan));
  options.runtime.seed = 99;
  VdceEnvironment env(make_campus_pair(13), options);
  EXPECT_TRUE(env.try_bring_up().ok());
  env.run_for(16.0);
  return health::render_alerts(env.health().alerts()) + "---\n" +
         health::score_detections(env.chaos()->ground_truth(),
                                  env.health().alerts())
             .render();
}

TEST(HealthDeterminism, IdenticalSeedsProduceIdenticalAlertSequences) {
  const std::string first = chaotic_alert_log(21);
  const std::string second = chaotic_alert_log(21);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(HealthDeterminism, DisabledPlaneLeavesTracesByteIdentical) {
  auto run = [](bool configure_rules) {
    EnvironmentOptions options;
    options.runtime.exec_noise_cv = 0.0;
    options.trace.enabled = true;
    options.metrics.enabled = true;
    if (configure_rules) {
      // A configured-but-disabled plane must behave exactly like an
      // untouched one: enabled stays false.
      options.health.sensitivity = 0.5;
      health::HealthRule rule;
      rule.id = "never";
      rule.metric = health::kHostLoad;
      rule.threshold = 0.0;
      options.health.rules.push_back(rule);
    }
    VdceEnvironment env(make_campus_pair(13), options);
    EXPECT_TRUE(env.try_bring_up().ok());
    EXPECT_TRUE(env.try_add_user("u", "p").ok());
    Session session = env.login(common::SiteId(0), "u", "p").value();
    afg::Afg graph = afg::make_chain(3, 500, 1e4);
    RunOptions opts;
    opts.real_kernels = false;
    auto report = env.run_application(graph, session, opts);
    EXPECT_TRUE(report.has_value());
    env.run_for(3.0);
    return env.trace().to_jsonl();
  };
  const std::string plain = run(false);
  const std::string configured = run(true);
  EXPECT_EQ(plain, configured);
  EXPECT_EQ(plain.find("health."), std::string::npos);
}

// --- offline replay ---------------------------------------------------------

TEST(HealthReplay, OfflineReplayMatchesTheLiveRun) {
  chaos::FaultPlan plan;
  plan.name("replay")
      .crash(common::HostId(2), 3.0, 8.0)
      .partition(0, 1, 6.0, 5.0);
  VdceEnvironment env(make_campus_pair(13), health_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(14.0);
  ASSERT_FALSE(env.health().alerts().empty());

  const std::string jsonl = env.trace().to_jsonl();
  auto parsed = obs::parse_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  auto replay = health::replay_trace(*parsed);
  ASSERT_TRUE(replay.has_value()) << replay.error().message;
  EXPECT_TRUE(replay->matches())
      << "live:\n"
      << health::render_alerts(replay->recorded) << "replayed:\n"
      << health::render_alerts(replay->plane.alerts());
  EXPECT_EQ(replay->recorded.size(), env.health().alerts().size());
  // Wall series never reach the trace, so the replayed plane holds one
  // fewer series than the live one.
  EXPECT_EQ(replay->plane.series_count() + 1, env.health().series_count());
}

TEST(HealthReplay, TraceWithoutHealthRecordsIsATypedError) {
  EnvironmentOptions options;
  options.trace.enabled = true;
  VdceEnvironment env(make_campus_pair(13), options);
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(2.0);
  auto parsed = obs::parse_jsonl(env.trace().to_jsonl());
  ASSERT_TRUE(parsed.has_value());
  auto replay = health::replay_trace(*parsed);
  ASSERT_FALSE(replay.has_value());
  EXPECT_EQ(replay.error().code, common::ErrorCode::kNotFound);
}

// --- report surface and exports ---------------------------------------------

TEST(HealthEndToEnd, ReportCarriesAlertsThatFiredInFlight) {
  chaos::FaultPlan plan;
  plan.name("mid-run-crash").crash(common::HostId(2), 2.0, 10.0);
  VdceEnvironment env(make_campus_pair(13), health_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();

  afg::Afg graph = afg::make_fork_join(3, 2, 3000, 1e5);
  RunOptions opts;
  opts.real_kernels = false;
  auto report = env.run_application(graph, session, opts);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  bool monitor_stale = false;
  for (const health::Alert& alert : report->alerts) {
    if (alert.rule == "monitor-stale" && alert.series.host == 2) {
      monitor_stale = true;
    }
  }
  EXPECT_TRUE(monitor_stale)
      << "report carried " << report->alerts.size() << " alerts";
}

TEST(HealthPlane, OpenMetricsExportHasSeriesAlertsAndEof) {
  chaos::FaultPlan plan;
  plan.name("export").crash(common::HostId(2), 2.0, 0.0);
  VdceEnvironment env(make_campus_pair(13), health_options(std::move(plan)));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.run_for(10.0);
  const std::string text = env.health().to_openmetrics(env.now());
  EXPECT_NE(text.find("vdce_health_host_cpu_load"), std::string::npos);
  EXPECT_NE(text.find("vdce_health_link_rtt"), std::string::npos);
  EXPECT_NE(text.find("vdce_health_alerts_active"), std::string::npos);
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);
  // No NaN/Inf value anywhere in the exposition (values follow a space;
  // bare "nan" also lives inside the word "tenancy").
  EXPECT_EQ(text.find(" nan"), std::string::npos);
  EXPECT_EQ(text.find(" -nan"), std::string::npos);
  EXPECT_EQ(text.find(" inf"), std::string::npos);
  EXPECT_EQ(text.find(" -inf"), std::string::npos);
  // Wall series stay out of the deterministic export.
  EXPECT_EQ(text.find("events_per_sec"), std::string::npos);
}

}  // namespace
}  // namespace vdce
