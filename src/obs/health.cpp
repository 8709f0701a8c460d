#include "obs/health.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace vdce::obs::health {

namespace {

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SeriesKey
// ---------------------------------------------------------------------------

std::string SeriesKey::label() const {
  std::string out = metric;
  std::string labels;
  auto append = [&labels](const char* name, const std::string& value) {
    if (!labels.empty()) labels += ',';
    labels += name;
    labels += '=';
    labels += value;
  };
  if (host >= 0) append("host", std::to_string(host));
  if (site >= 0) append("site", std::to_string(site));
  if (link_a >= 0) append("link_a", std::to_string(link_a));
  if (link_b >= 0) append("link_b", std::to_string(link_b));
  if (!tenant.empty()) append("tenant", tenant);
  if (!labels.empty()) out += '{' + labels + '}';
  return out;
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TimeSeries::TimeSeries(SeriesKey key, std::size_t capacity,
                       common::SimTime created, bool wall, std::size_t index)
    : key_(std::move(key)),
      ring_(std::max<std::size_t>(capacity, 2)),
      created_(created),
      index_(index),
      wall_(wall) {}

void TimeSeries::observe(common::SimTime time, double value) {
  // window() binary-searches on time, so it must never decrease.
  assert(time >= last_time());
  if (size_ < ring_.size()) {
    ring_[slot(size_)] = SeriesPoint{time, value};
    ++size_;
  } else {
    ring_[start_] = SeriesPoint{time, value};
    start_ = slot(1);
  }
  ++total_;
}

double TimeSeries::last() const noexcept {
  if (size_ == 0) return 0.0;
  return at(size_ - 1).value;
}

common::SimTime TimeSeries::last_time() const noexcept {
  if (size_ == 0) return -1.0;
  return at(size_ - 1).time;
}

std::size_t TimeSeries::first_at_or_after(
    common::SimTime cutoff) const noexcept {
  // Rule windows are short next to the ring, so first gallop back from the
  // newest point to bracket the cutoff: the search then costs O(log k) for
  // k in-window points and touches only the ring's newest cache lines.
  // Every point in [hi, size_) is at or after the cutoff.
  std::size_t hi = size_;
  std::size_t step = 1;
  while (step <= hi && at(hi - step).time >= cutoff) {
    hi -= step;
    step *= 2;
  }
  std::size_t lo = step <= hi ? hi - step + 1 : 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).time < cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

WindowStats TimeSeries::window(common::SimTime now,
                               common::SimDuration window) const {
  WindowStats w;
  const common::SimTime cutoff = now - window;
  const std::size_t first = first_at_or_after(cutoff);
  // The baseline is the newest point before the window.
  const bool has_baseline = first > 0;
  const double baseline = has_baseline ? at(first - 1).value : 0.0;
  double first_value = 0.0;
  common::SimTime first_time = 0.0;
  double sum = 0.0;
  for (std::size_t i = first; i < size_; ++i) {
    const SeriesPoint& p = at(i);
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
  }
  if (w.count > 0) {
    w.mean = sum / static_cast<double>(w.count);
    if (w.count >= 2 && w.last_time > first_time) {
      w.rate = (w.last - first_value) / (w.last_time - first_time);
    }
    if (has_baseline) {
      w.increase = w.last - baseline;
    } else if (cutoff <= created_) {
      // The window reaches back past the series' birth: a counter series
      // implicitly started at 0.
      w.increase = w.last;
    } else {
      // Older points were evicted from the ring; the in-window span is the
      // best (under-)estimate available.
      w.increase = w.last - first_value;
    }
  }
  return w;
}

double TimeSeries::window_quantile(common::SimTime now,
                                   common::SimDuration window, double q,
                                   std::vector<double>& scratch) const {
  scratch.clear();
  for (std::size_t i = first_at_or_after(now - window); i < size_; ++i) {
    scratch.push_back(at(i).value);
  }
  if (scratch.empty()) return 0.0;
  std::sort(scratch.begin(), scratch.end());
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(scratch.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), scratch.size());
  return scratch[rank - 1];
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const char* to_string(RuleKind kind) {
  switch (kind) {
    case RuleKind::kThreshold: return "threshold";
    case RuleKind::kSustained: return "sustained";
    case RuleKind::kRateOfChange: return "rate_of_change";
    case RuleKind::kBurnRate: return "burn_rate";
    case RuleKind::kStaleness: return "staleness";
  }
  return "unknown";
}

common::Expected<RuleKind> rule_kind_from_string(std::string_view text) {
  if (text == "threshold") return RuleKind::kThreshold;
  if (text == "sustained") return RuleKind::kSustained;
  if (text == "rate_of_change") return RuleKind::kRateOfChange;
  if (text == "burn_rate") return RuleKind::kBurnRate;
  if (text == "staleness") return RuleKind::kStaleness;
  return common::Error{common::ErrorCode::kParseError,
                       "unknown health rule kind \"" + std::string(text) +
                           "\""};
}

std::string render_alerts(const std::vector<Alert>& alerts) {
  std::string out;
  for (const Alert& a : alerts) {
    out += "alert rule=" + a.rule + " series=" + a.series.label() +
           " fired=" + json_number(a.fired) +
           " value=" + json_number(a.value) +
           " threshold=" + json_number(a.threshold) +
           " cleared=" +
           (a.active() ? std::string("-") : json_number(a.cleared)) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// HealthPlane
// ---------------------------------------------------------------------------

HealthPlane::HealthPlane(HealthOptions options)
    : options_(std::move(options)) {}

void HealthPlane::wire(MetricsRegistry* metrics, TraceSink* trace) {
  if (!options_.enabled) return;  // off means off: never touch the sinks
  metrics_ = metrics;
  samples_counter_ = nullptr;
  evaluations_counter_ = nullptr;
  trace_ = trace != nullptr && trace->enabled() ? trace : nullptr;
}

Counter& HealthPlane::cached_counter(Counter*& slot, const char* name) {
  // First use, not wire(): the registry only learns the name once the plane
  // has something to count, as it did with a per-call lookup.
  if (slot == nullptr) slot = &metrics_->counter(name);
  return *slot;
}

void HealthPlane::start(common::SimTime now) {
  if (!options_.enabled || started_) return;
  started_ = true;
  if (trace_ != nullptr) {
    trace_->instant(
        "health", "health.config", now, kControlTrack,
        {arg("cadence", options_.cadence),
         arg("ring_capacity", std::uint64_t{options_.ring_capacity}),
         arg("sensitivity", options_.sensitivity)});
  }
}

TimeSeries* HealthPlane::series(const SeriesKey& key, common::SimTime now) {
  return register_series(key, now, false);
}

TimeSeries* HealthPlane::wall_series(const SeriesKey& key,
                                     common::SimTime now) {
  return register_series(key, now, true);
}

TimeSeries* HealthPlane::register_series(const SeriesKey& key,
                                         common::SimTime now, bool wall) {
  if (!options_.enabled) return nullptr;
  auto it = index_.find(key);
  if (it != index_.end()) return store_[it->second].get();
  if (store_.size() >= options_.max_series) {
    if (metrics_ != nullptr) {
      metrics_->counter("vdce.health.series_dropped").add();
    }
    return nullptr;
  }
  const std::size_t index = store_.size();
  store_.push_back(std::make_unique<TimeSeries>(key, options_.ring_capacity,
                                                now, wall, index));
  index_.emplace(key, index);
  TimeSeries* ts = store_.back().get();
  for (std::size_t r = 0; r < rules_.size(); ++r) bind(r, *ts);
  // Wall series are never traced — replay must not depend on wall time.
  if (!wall) emit_series_record(*ts, now);
  return ts;
}

void HealthPlane::bind(std::size_t r, const TimeSeries& ts) {
  const HealthRule& rule = rules_[r];
  const SeriesKey& key = ts.key();
  if (ts.wall() || key.metric != rule.metric) return;
  if (rule.host >= 0 && key.host != rule.host) return;
  if (rule.site >= 0 && key.site != rule.site) return;
  bindings_[r].push_back(Binding{&ts});
}

void HealthPlane::emit_series_record(const TimeSeries& ts,
                                     common::SimTime now) {
  if (trace_ == nullptr) return;
  const SeriesKey& k = ts.key();
  const std::uint32_t track =
      k.host >= 0 ? static_cast<std::uint32_t>(k.host) : kControlTrack;
  trace_->instant("health", "health.series", now, track,
                  {arg("s", std::uint64_t{ts.index()}),
                   arg("metric", k.metric), arg("host", k.host),
                   arg("site", k.site), arg("link_a", k.link_a),
                   arg("link_b", k.link_b), arg("tenant", k.tenant)});
}

void HealthPlane::observe(TimeSeries* ts, common::SimTime time, double value) {
  if (ts == nullptr || !options_.enabled) return;
  ts->observe(time, value);
  if (ts->wall()) return;  // wall feeds stay out of traces and metrics
  ++samples_;
  if (metrics_ != nullptr) {
    cached_counter(samples_counter_, "vdce.health.samples").add();
  }
  if (trace_ != nullptr) {
    const SeriesKey& k = ts->key();
    const std::uint32_t track =
        k.host >= 0 ? static_cast<std::uint32_t>(k.host) : kControlTrack;
    trace_->instant("health", "health.sample", time, track,
                    {arg("s", std::uint64_t{ts->index()}), arg("v", value)});
  }
}

void HealthPlane::observe(const SeriesKey& key, common::SimTime time,
                          double value) {
  observe(series(key, time), time, value);
}

void HealthPlane::observe_delta(const SeriesKey& key, common::SimTime time,
                                double delta) {
  TimeSeries* ts = series(key, time);
  if (ts == nullptr) return;
  observe(ts, time, ts->last() + delta);
}

void HealthPlane::add_rule(HealthRule rule, common::SimTime now) {
  if (!options_.enabled) return;
  if (trace_ != nullptr) {
    trace_->instant(
        "health", "health.rule", now, kControlTrack,
        {arg("id", rule.id), arg("kind", to_string(rule.kind)),
         arg("metric", rule.metric), arg("threshold", rule.threshold),
         arg("above", rule.above), arg("window", rule.window),
         arg("long_window", rule.long_window),
         arg("min_samples", std::uint64_t{rule.min_samples}),
         arg("rhost", rule.host), arg("rsite", rule.site)});
  }
  rules_.push_back(std::move(rule));
  bindings_.emplace_back();
  for (const auto& ts : store_) bind(rules_.size() - 1, *ts);
}

bool HealthPlane::violated(const HealthRule& rule, const TimeSeries& ts,
                           common::SimTime now, double& value) const {
  auto beyond = [&rule](double v) {
    return rule.above ? v > rule.threshold : v < rule.threshold;
  };
  switch (rule.kind) {
    case RuleKind::kThreshold: {
      if (ts.empty()) return false;
      value = ts.last();
      return beyond(value);
    }
    case RuleKind::kSustained: {
      WindowStats w = ts.window(now, rule.window);
      if (w.count < std::max<std::size_t>(rule.min_samples, 1)) return false;
      // All in-window samples beyond the threshold <=> the extremum is.
      value = rule.above ? w.min : w.max;
      return beyond(value);
    }
    case RuleKind::kRateOfChange: {
      WindowStats w = ts.window(now, rule.window);
      if (w.count < 2) return false;
      value = w.rate;
      return beyond(value);
    }
    case RuleKind::kBurnRate: {
      const common::SimDuration long_window =
          rule.long_window > 0.0 ? rule.long_window : rule.window * 4.0;
      WindowStats ws = ts.window(now, rule.window);
      WindowStats wl = ts.window(now, long_window);
      const double short_rate =
          ws.count > 0 ? ws.increase / rule.window : 0.0;
      const double long_rate = wl.count > 0 ? wl.increase / long_window : 0.0;
      value = short_rate;
      return beyond(short_rate) && beyond(long_rate);
    }
    case RuleKind::kStaleness: {
      const common::SimTime reference =
          std::max(ts.last_time(), ts.created());
      value = now - reference;
      return value > rule.window;
    }
  }
  return false;
}

void HealthPlane::emit_transition(const HealthRule& rule,
                                  const TimeSeries& ts, bool fire,
                                  common::SimTime now, double value) {
  if (metrics_ != nullptr) {
    metrics_->counter(fire ? "vdce.health.alerts_fired"
                           : "vdce.health.alerts_cleared")
        .add();
    metrics_->gauge("vdce.health.alerts_active")
        .set(static_cast<double>(active_));
  }
  if (trace_ != nullptr) {
    const SeriesKey& k = ts.key();
    const std::uint32_t track =
        k.host >= 0 ? static_cast<std::uint32_t>(k.host) : kControlTrack;
    trace_->instant("health", "health.alert", now, track,
                    {arg("state", fire ? "fire" : "clear"),
                     arg("rule", rule.id),
                     arg("s", std::uint64_t{ts.index()}),
                     arg("value", value), arg("threshold", rule.threshold)});
  }
}

void HealthPlane::evaluate(common::SimTime now) {
  if (!options_.enabled) return;
  ++evaluations_;
  if (metrics_ != nullptr) {
    cached_counter(evaluations_counter_, "vdce.health.evaluations").add();
  }
  if (trace_ != nullptr) {
    trace_->instant("health", "health.eval", now, kControlTrack,
                    {arg("seq", evaluations_)});
  }
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const HealthRule& rule = rules_[r];
    for (Binding& b : bindings_[r]) {
      const TimeSeries& ts = *b.series;
      double value = 0.0;
      const bool firing = violated(rule, ts, now, value);
      if (firing && !b.firing) {
        b.firing = true;
        b.alert = alerts_.size();
        alerts_.push_back(Alert{rule.id, ts.key(), now, -1.0, value,
                                rule.threshold});
        ++active_;
        emit_transition(rule, ts, true, now, value);
      } else if (!firing && b.firing) {
        b.firing = false;
        alerts_[b.alert].cleared = now;
        --active_;
        emit_transition(rule, ts, false, now, value);
      }
    }
  }
}

std::string HealthPlane::to_openmetrics(common::SimTime now,
                                        common::SimDuration window,
                                        bool include_wall) const {
  // Group series by metric (ordered) so each OpenMetrics family is
  // declared exactly once.
  std::map<std::string, std::vector<const TimeSeries*>> families;
  for (const auto& ts : store_) {
    if (ts->wall() && !include_wall) continue;
    families[ts->key().metric].push_back(ts.get());
  }
  std::string out;
  auto label_set = [](const SeriesKey& k) {
    std::string labels;
    auto append = [&labels](const char* name, const std::string& value) {
      if (!labels.empty()) labels += ',';
      labels += name;
      labels += "=\"";
      labels += value;
      labels += '"';
    };
    if (k.host >= 0) append("host", std::to_string(k.host));
    if (k.site >= 0) append("site", std::to_string(k.site));
    if (k.link_a >= 0) append("link_a", std::to_string(k.link_a));
    if (k.link_b >= 0) append("link_b", std::to_string(k.link_b));
    if (!k.tenant.empty()) append("tenant", k.tenant);
    return labels;
  };
  const std::string window_label = "window=\"" + json_number(window) + "\"";
  for (const auto& [metric, list] : families) {
    const std::string family = "vdce_health_" + sanitize(metric);
    out += "# TYPE " + family + " gauge\n";
    for (const TimeSeries* ts : list) {
      std::string labels = label_set(ts->key());
      out += family + (labels.empty() ? "" : "{" + labels + "}") + " " +
             json_number(ts->last()) + "\n";
    }
    out += "# TYPE " + family + "_window gauge\n";
    for (const TimeSeries* ts : list) {
      WindowStats w = ts->window(now, window);
      std::string base = label_set(ts->key());
      auto line = [&](const char* agg, double v) {
        std::string labels = base.empty() ? std::string() : base + ",";
        labels += "agg=\"";
        labels += agg;
        labels += "\",";
        labels += window_label;
        out += family + "_window{" + labels + "} " + json_number(v) + "\n";
      };
      line("count", static_cast<double>(w.count));
      line("mean", w.mean);
      line("max", w.max);
      line("rate", w.rate);
      line("p50", ts->window_quantile(now, window, 0.50, scratch_));
      line("p99", ts->window_quantile(now, window, 0.99, scratch_));
    }
  }
  out += "# TYPE vdce_health_alerts_active gauge\n";
  out += "vdce_health_alerts_active " +
         std::to_string(active_) + "\n";
  out += "# TYPE vdce_health_alerts counter\n";
  out += "vdce_health_alerts_total " + std::to_string(alerts_.size()) + "\n";
  out += "# EOF\n";
  return out;
}

// ---------------------------------------------------------------------------
// Default rules
// ---------------------------------------------------------------------------

namespace {

/// admission-backlog fires on a queue this deep (sustained).
constexpr double kQueueAlertDepth = 16.0;
/// quota-burn and recovery-storm fire above this many events per second.
constexpr double kRecoveryRatePerSec = 0.5;
/// sched-slow fires on a scheduling decision this long (x sensitivity).
constexpr double kSchedAlertSeconds = 30.0;

}  // namespace

std::vector<HealthRule> default_rules(const DefaultRuleParams& p) {
  const double s = p.sensitivity;
  std::vector<HealthRule> rules;
  // A healthy monitor reports every monitor_period; a crash or a stale
  // window starves the series.  At s = 1 the window is 3.5 periods — three
  // missed samples plus phase slack.  Below s ~ 0.17 the window undercuts
  // the sampling period itself and false positives appear (the regime
  // bench_health's sweep exposes).
  rules.push_back(HealthRule{"monitor-stale", RuleKind::kStaleness, kHostLoad,
                             0.0, true, (0.5 + 3.0 * s) * p.monitor_period});
  // Site-server probes answer within one cadence; a partition starves the
  // pair's rtt series in both directions.
  rules.push_back(HealthRule{"link-probe-stale", RuleKind::kStaleness,
                             kLinkRtt, 0.0, true,
                             (2.0 + 3.0 * s) * p.cadence});
  // Healthy WAN rtt tops out well under 0.5 s on the generated testbeds; a
  // degraded link multiplies it past the threshold.
  rules.push_back(HealthRule{"link-slow", RuleKind::kThreshold, kLinkRtt,
                             0.5 * s, true});
  // Load spikes: every sample in the window above the overload threshold.
  {
    HealthRule r{"host-overload", RuleKind::kSustained, kHostLoad,
                 p.overload_threshold, true,
                 std::max(3.0 * s * p.monitor_period, p.cadence)};
    r.min_samples = 2;
    rules.push_back(std::move(r));
  }
  {
    HealthRule r{"admission-backlog", RuleKind::kSustained, kQueueDepth,
                 kQueueAlertDepth, true, 5.0 * s * p.cadence};
    r.min_samples = 3;
    rules.push_back(std::move(r));
  }
  {
    HealthRule r{"quota-burn", RuleKind::kBurnRate, kRejections,
                 kRecoveryRatePerSec, true, 5.0 * s};
    r.long_window = 20.0 * s;
    rules.push_back(std::move(r));
  }
  {
    HealthRule r{"recovery-storm", RuleKind::kBurnRate, kRecoveryActions,
                 kRecoveryRatePerSec, true, 5.0 * s};
    r.long_window = 20.0 * s;
    rules.push_back(std::move(r));
  }
  rules.push_back(HealthRule{"sched-slow", RuleKind::kThreshold,
                             kSchedSeconds, kSchedAlertSeconds * s, true});
  return rules;
}

// ---------------------------------------------------------------------------
// Detection scoring
// ---------------------------------------------------------------------------

namespace {

common::SimTime fault_end(const GroundTruthFault& f,
                          const DetectionOptions& options) {
  if (f.duration > 0.0) return f.at + f.duration;
  if (options.horizon >= 0.0) return options.horizon;
  return std::numeric_limits<double>::infinity();
}

/// Does the alert's series label point at this fault's target?
bool label_match(const GroundTruthFault& f, const SeriesKey& k) {
  if (k.link_a >= 0) {
    // Link series: only pairwise faults, as an unordered pair.
    if (f.site_a < 0 || f.site_b < 0) return false;
    const std::int64_t lo = std::min(f.site_a, f.site_b);
    const std::int64_t hi = std::max(f.site_a, f.site_b);
    return lo == k.link_a && hi == k.link_b;
  }
  if (k.host >= 0) {
    if (f.host >= 0) return f.host == k.host;
    // Site-scoped fault (stale site): any host series inside the site.
    return f.site >= 0 && f.site == k.site;
  }
  if (k.site >= 0) return f.site == k.site || f.site_a == k.site ||
                          f.site_b == k.site;
  return false;  // control-plane series never pin a specific fault
}

bool control_scoped(const SeriesKey& k) {
  return k.host < 0 && k.site < 0 && k.link_a < 0;
}

}  // namespace

DetectionScore score_detections(const std::vector<GroundTruthFault>& faults,
                                const std::vector<Alert>& alerts,
                                const DetectionOptions& options) {
  DetectionScore score;
  score.faults.reserve(faults.size());
  for (const GroundTruthFault& f : faults) {
    score.faults.push_back(FaultDetection{f});
  }

  for (const Alert& a : alerts) {
    bool explained = false;
    bool excused = false;
    for (FaultDetection& d : score.faults) {
      const GroundTruthFault& f = d.fault;
      const bool in_window =
          a.fired >= f.at &&
          a.fired <= fault_end(f, options) + options.max_latency;
      if (!in_window) continue;
      if (control_scoped(a.series)) {
        // Storm/backlog alerts are excused when any fault overlaps, but
        // they are too unspecific to claim the detection — they count
        // toward neither precision bucket.
        excused = true;
        continue;
      }
      if (!label_match(f, a.series)) continue;
      explained = true;
      if (!d.detected || a.fired < d.detected_at) {
        d.detected = true;
        d.detected_at = a.fired;
        d.latency = a.fired - f.at;
        d.rule = a.rule;
      }
    }
    if (explained) {
      ++score.true_positive_alerts;
    } else if (!excused) {
      ++score.false_positive_alerts;
    }
  }

  for (const FaultDetection& d : score.faults) {
    ClassScore& cls = score.by_class[d.fault.kind];
    ++cls.total;
    if (d.detected) {
      ++cls.detected;
      cls.latency.add(d.latency);
    }
  }
  return score;
}

std::string DetectionScore::render() const {
  std::string out;
  for (const FaultDetection& d : faults) {
    out += "fault kind=" + d.fault.kind + " at=" + json_number(d.fault.at) +
           " duration=" + json_number(d.fault.duration);
    if (d.fault.host >= 0) out += " host=" + std::to_string(d.fault.host);
    if (d.fault.site >= 0) out += " site=" + std::to_string(d.fault.site);
    if (d.fault.site_a >= 0) {
      out += " sites=" + std::to_string(d.fault.site_a) + "|" +
             std::to_string(d.fault.site_b);
    }
    if (d.detected) {
      out += " detected_at=" + json_number(d.detected_at) +
             " latency=" + json_number(d.latency) + " rule=" + d.rule;
    } else {
      out += " detected=no";
    }
    out += "\n";
  }
  for (const auto& [kind, cls] : by_class) {
    out += "class " + kind + ": total=" + std::to_string(cls.total) +
           " detected=" + std::to_string(cls.detected) +
           " recall=" + json_number(cls.recall());
    if (!cls.latency.empty()) {
      out += " latency_mean=" + json_number(cls.latency.mean()) +
             " latency_max=" + json_number(cls.latency.max());
    }
    out += "\n";
  }
  out += "alerts: tp=" + std::to_string(true_positive_alerts) +
         " fp=" + std::to_string(false_positive_alerts) +
         " precision=" + json_number(precision()) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Offline replay
// ---------------------------------------------------------------------------

namespace {

double num_arg(const TraceEvent& e, std::string_view key, double fallback) {
  const std::string* v = e.find_arg(key);
  if (v == nullptr) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

std::int64_t int_arg(const TraceEvent& e, std::string_view key,
                     std::int64_t fallback) {
  const std::string* v = e.find_arg(key);
  if (v == nullptr) return fallback;
  return std::strtoll(v->c_str(), nullptr, 10);
}

std::string str_arg(const TraceEvent& e, std::string_view key) {
  const std::string* v = e.find_arg(key);
  return v == nullptr ? std::string() : *v;
}

}  // namespace

common::Expected<ReplayResult> replay_trace(const ParsedTrace& trace) {
  const TraceEvent* config = nullptr;
  for (const TraceEvent& e : trace.events) {
    if (e.name == "health.config") {
      config = &e;
      break;
    }
  }
  if (config == nullptr) {
    return common::Error{
        common::ErrorCode::kNotFound,
        "replay_trace: no health.config record — was the health plane "
        "enabled (EnvironmentOptions.health.enabled) when the trace was "
        "written?"};
  }

  HealthOptions options;
  options.enabled = true;
  options.default_rules = false;
  options.cadence = num_arg(*config, "cadence", 1.0);
  options.ring_capacity =
      static_cast<std::size_t>(int_arg(*config, "ring_capacity", 512));
  options.sensitivity = num_arg(*config, "sensitivity", 1.0);

  ReplayResult result;
  result.plane = HealthPlane(options);
  result.plane.start(config->start);

  // Live index -> replayed series.  Indices are NOT contiguous: wall-clock
  // feeds hold live slots but never emit trace records, so the recorded
  // stream skips theirs.
  std::map<std::size_t, TimeSeries*> by_index;
  // (rule id, series index) -> open recorded alert, for matching clears.
  std::map<std::pair<std::string, std::size_t>, std::size_t> open;

  for (const TraceEvent& e : trace.events) {
    if (e.category != "health") continue;
    if (e.name == "health.rule") {
      HealthRule rule;
      rule.id = str_arg(e, "id");
      auto kind = rule_kind_from_string(str_arg(e, "kind"));
      if (!kind) return kind.error();
      rule.kind = *kind;
      rule.metric = str_arg(e, "metric");
      rule.threshold = num_arg(e, "threshold", 0.0);
      rule.above = str_arg(e, "above") == "true";
      rule.window = num_arg(e, "window", 10.0);
      rule.long_window = num_arg(e, "long_window", 0.0);
      rule.min_samples =
          static_cast<std::size_t>(int_arg(e, "min_samples", 1));
      rule.host = int_arg(e, "rhost", -1);
      rule.site = int_arg(e, "rsite", -1);
      result.plane.add_rule(std::move(rule), e.start);
    } else if (e.name == "health.series") {
      SeriesKey key;
      key.metric = str_arg(e, "metric");
      key.host = int_arg(e, "host", -1);
      key.site = int_arg(e, "site", -1);
      key.link_a = int_arg(e, "link_a", -1);
      key.link_b = int_arg(e, "link_b", -1);
      key.tenant = str_arg(e, "tenant");
      const auto index = static_cast<std::size_t>(int_arg(e, "s", -1));
      TimeSeries* ts = result.plane.series(key, e.start);
      if (ts == nullptr || by_index.count(index) != 0) {
        return common::Error{common::ErrorCode::kParseError,
                             "replay_trace: duplicate health.series "
                             "record (index " +
                                 std::to_string(index) + ")"};
      }
      by_index.emplace(index, ts);
    } else if (e.name == "health.sample") {
      const auto index = static_cast<std::size_t>(int_arg(e, "s", -1));
      auto it = by_index.find(index);
      if (it == by_index.end()) {
        return common::Error{common::ErrorCode::kParseError,
                             "replay_trace: health.sample references "
                             "unknown series " +
                                 std::to_string(index)};
      }
      result.plane.observe(it->second, e.start, num_arg(e, "v", 0.0));
    } else if (e.name == "health.eval") {
      result.plane.evaluate(e.start);
    } else if (e.name == "health.alert") {
      const auto index = static_cast<std::size_t>(int_arg(e, "s", -1));
      auto it = by_index.find(index);
      if (it == by_index.end()) {
        return common::Error{common::ErrorCode::kParseError,
                             "replay_trace: health.alert references "
                             "unknown series " +
                                 std::to_string(index)};
      }
      const std::string rule = str_arg(e, "rule");
      if (str_arg(e, "state") == "fire") {
        open[{rule, index}] = result.recorded.size();
        result.recorded.push_back(Alert{rule, it->second->key(), e.start,
                                        -1.0, num_arg(e, "value", 0.0),
                                        num_arg(e, "threshold", 0.0)});
      } else {
        auto it = open.find({rule, index});
        if (it != open.end()) {
          result.recorded[it->second].cleared = e.start;
          open.erase(it);
        }
      }
    }
  }
  return result;
}

}  // namespace vdce::obs::health
