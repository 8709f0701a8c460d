// vdce::obs::health — the live health plane (docs/OBSERVABILITY.md).
//
// Where the metrics registry answers "what happened by the end of the run",
// the health plane watches the system *while it degrades*: labelled
// time-series ring buffers fed from the existing instrumentation points
// (monitor samples, admission queue depth, quota rejections, recovery
// actions, scheduling time, probe round-trips), a declarative rule engine
// evaluated on a sim-time cadence, and typed Alert records emitted into the
// trace stream.
//
// Design constraints, in order:
//  * Determinism.  Everything is driven by simulated time and seeded
//    randomness; identical seeds produce identical alert sequences, and the
//    trace records carry enough state that an offline replay
//    (replay_trace / vdce-inspect --alerts) reconstructs the live alert
//    stream exactly.
//  * Zero steady-state allocation.  Rings are preallocated at registration;
//    observe() is a store into a ring slot; windowed aggregates read the
//    ring in place (the quantile scratch vector is reused), and the metrics
//    counters the hot paths bump are looked up once and cached.
//  * O(window) evaluation.  Each rule keeps the list of series it matches
//    (its bindings, built at registration), so a tick visits only matching
//    (rule, series) pairs; a windowed aggregate searches back from the
//    newest point for the window start and reads only the in-window points.
//  * Off means off.  A disabled plane registers nothing, observes nothing,
//    and emits nothing — traces of a health-off run are byte-identical to a
//    build without the plane.
//
// Because the chaos plane knows exactly when every fault fires,
// score_detections() turns an armed FaultPlan plus the alert log into
// per-fault-class detection latency / precision / recall — the quantity
// bench_health sweeps against rule sensitivity.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vdce::obs::health {

// ---------------------------------------------------------------------------
// Series identity
// ---------------------------------------------------------------------------

/// Label set of one time series.  -1 / empty means "not scoped by this
/// label"; a series with every label unset is control-plane-scoped (queue
/// depth, rejections, scheduling time).  Link series use the unordered site
/// pair (link_a < link_b).
struct SeriesKey {
  std::string metric;
  std::int64_t host = -1;
  std::int64_t site = -1;
  std::int64_t link_a = -1;
  std::int64_t link_b = -1;
  std::string tenant;

  [[nodiscard]] bool operator==(const SeriesKey& o) const noexcept {
    return metric == o.metric && host == o.host && site == o.site &&
           link_a == o.link_a && link_b == o.link_b && tenant == o.tenant;
  }
  [[nodiscard]] bool operator<(const SeriesKey& o) const noexcept {
    if (metric != o.metric) return metric < o.metric;
    if (host != o.host) return host < o.host;
    if (site != o.site) return site < o.site;
    if (link_a != o.link_a) return link_a < o.link_a;
    if (link_b != o.link_b) return link_b < o.link_b;
    return tenant < o.tenant;
  }

  /// Canonical rendering: `metric{host=3,site=0}` — only set labels appear.
  [[nodiscard]] std::string label() const;
};

/// Well-known metric names, shared by the instrumentation sites, the default
/// rules, and the tests.
inline constexpr const char* kHostLoad = "host.cpu_load";
inline constexpr const char* kHostMem = "host.available_mb";
inline constexpr const char* kLinkRtt = "link.rtt";
inline constexpr const char* kQueueDepth = "tenancy.queue_depth";
inline constexpr const char* kRejections = "tenancy.rejections";
inline constexpr const char* kRecoveryActions = "recovery.actions";
inline constexpr const char* kFailuresDetected = "monitor.failures";
inline constexpr const char* kSchedSeconds = "sched.decision_seconds";
inline constexpr const char* kContentionSkips = "sched.contention_skips";
inline constexpr const char* kReservationWait = "reservation.wait_seconds";
inline constexpr const char* kReservationDisplaced = "reservation.displaced";
inline constexpr const char* kEventsPerSec = "sim.events_per_sec";

// ---------------------------------------------------------------------------
// TimeSeries — a preallocated ring of (time, value) points
// ---------------------------------------------------------------------------

struct SeriesPoint {
  common::SimTime time = 0.0;
  double value = 0.0;
};

/// Aggregates over the points with time >= now - window.  `rate` is the
/// value slope across the window ((last - first) / dt, 0 with < 2 points);
/// `increase` is last minus the value at or before the window start (the
/// counter-style delta burn-rate rules divide by the window length).
struct WindowStats {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;
  double rate = 0.0;
  double increase = 0.0;
  common::SimTime last_time = -1.0;  ///< -1: window is empty
};

/// One labelled series: a fixed-capacity ring of samples plus the running
/// total.  Once the ring is full the oldest point is overwritten — windowed
/// rules only ever look `window` seconds back, so capacity need only cover
/// the longest rule window at the feed rate (HealthOptions::ring_capacity).
/// Point times never decrease, which is what lets a window find its start
/// by binary search.
class TimeSeries {
 public:
  TimeSeries(SeriesKey key, std::size_t capacity, common::SimTime created,
             bool wall = false, std::size_t index = 0);

  /// Append a point; `time` must not precede last_time().  No allocation;
  /// O(1).
  void observe(common::SimTime time, double value);

  [[nodiscard]] const SeriesKey& key() const noexcept { return key_; }
  /// Registration index in the owning plane (the `s` of its trace records).
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  /// Wall-clock-derived series (sim.events_per_sec) are excluded from trace
  /// emission, replay, and rule evaluation — same contract as the metrics
  /// registry's wall_gauge family.
  [[nodiscard]] bool wall() const noexcept { return wall_; }
  [[nodiscard]] common::SimTime created() const noexcept { return created_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Latest point; last_time() is -1 when the series is empty.
  [[nodiscard]] double last() const noexcept;
  [[nodiscard]] common::SimTime last_time() const noexcept;

  /// Aggregate the points in [now - window, now].  O(k) for k in-window
  /// points: the window start is bracketed by galloping back from the
  /// newest point and binary-searched, then the in-window points are read
  /// oldest to newest.
  [[nodiscard]] WindowStats window(common::SimTime now,
                                   common::SimDuration window) const;

  /// Exact nearest-rank quantile (q in [0,1]) over the window, using the
  /// caller-provided scratch buffer (reused across calls — no steady-state
  /// allocation once scratch has grown to ring capacity).  0 when empty.
  /// O(k log k) for k in-window points.
  [[nodiscard]] double window_quantile(common::SimTime now,
                                       common::SimDuration window, double q,
                                       std::vector<double>& scratch) const;

  /// Visit retained points oldest-to-newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(at(i));
  }

 private:
  /// Ring slot of the i-th retained point, oldest first (i < capacity).
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t j = start_ + i;
    return j < ring_.size() ? j : j - ring_.size();
  }
  [[nodiscard]] const SeriesPoint& at(std::size_t i) const noexcept {
    return ring_[slot(i)];
  }
  /// Offset (oldest first) of the first point with time >= cutoff; size()
  /// when there is none.
  [[nodiscard]] std::size_t first_at_or_after(
      common::SimTime cutoff) const noexcept;

  SeriesKey key_;
  std::vector<SeriesPoint> ring_;
  std::size_t start_ = 0;  ///< index of the oldest point
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  common::SimTime created_;
  std::size_t index_ = 0;
  bool wall_ = false;
};

// ---------------------------------------------------------------------------
// Rules and alerts
// ---------------------------------------------------------------------------

enum class RuleKind {
  kThreshold,     ///< latest value beyond the threshold
  kSustained,     ///< every sample in the window beyond the threshold
  kRateOfChange,  ///< window slope beyond the threshold
  kBurnRate,      ///< counter increase rate over BOTH windows beyond it
  kStaleness,     ///< no sample for longer than `window`
};

[[nodiscard]] const char* to_string(RuleKind kind);
[[nodiscard]] common::Expected<RuleKind> rule_kind_from_string(
    std::string_view text);

/// One declarative rule.  A rule applies to every registered series whose
/// metric matches `metric` and whose host/site labels match the (optional)
/// selectors.  Semantics by kind:
///  * kThreshold     — fire while the latest sample is beyond `threshold`.
///  * kSustained     — fire while the window holds >= min_samples samples
///                     and ALL of them are beyond `threshold`.
///  * kRateOfChange  — fire while the window slope (value units / second)
///                     is beyond `threshold` (needs >= 2 samples).
///  * kBurnRate      — for cumulative counters: fire while the increase
///                     rate over the short `window` AND the `long_window`
///                     both exceed `threshold` (events / second) — the
///                     classic two-window SLO burn-rate check.
///  * kStaleness     — fire while now - max(last sample, series creation)
///                     exceeds `window`; `above` is ignored.
/// "Beyond" means > threshold when `above`, < threshold otherwise.
struct HealthRule {
  std::string id;
  RuleKind kind = RuleKind::kThreshold;
  std::string metric;
  double threshold = 0.0;
  bool above = true;
  common::SimDuration window = 10.0;
  common::SimDuration long_window = 0.0;  ///< burn-rate only
  std::size_t min_samples = 1;            ///< sustained only
  std::int64_t host = -1;                 ///< selector: -1 = any host
  std::int64_t site = -1;                 ///< selector: -1 = any site
};

/// One alert: a (rule, series) pair that crossed into firing at `fired` and
/// (possibly) back out at `cleared`.  Append-only log entry; `value` is the
/// measurement that crossed the threshold.
struct Alert {
  std::string rule;
  SeriesKey series;
  common::SimTime fired = 0.0;
  common::SimTime cleared = -1.0;  ///< -1 while still active
  double value = 0.0;
  double threshold = 0.0;

  [[nodiscard]] bool active() const noexcept { return cleared < 0.0; }
};

/// Canonical text rendering of an alert log, one line per alert in firing
/// order — the byte-identical determinism artifact tests and the offline
/// replay verification diff.
[[nodiscard]] std::string render_alerts(const std::vector<Alert>& alerts);

// ---------------------------------------------------------------------------
// HealthPlane
// ---------------------------------------------------------------------------

struct HealthOptions {
  bool enabled = false;
  /// Rule-evaluation (and probe) period in simulated seconds.
  common::SimDuration cadence = 1.0;
  /// Points retained per series.  At the default 1 Hz feeds this covers
  /// ~8.5 simulated minutes — far beyond the default rule windows.
  std::size_t ring_capacity = 512;
  /// Hard cap on registered series (bounds memory on huge topologies);
  /// registrations past it are dropped and counted in the
  /// vdce.health.series_dropped metric.
  std::size_t max_series = 4096;
  /// Install the default rule set (default_rules()) at bring-up.
  bool default_rules = true;
  /// Scales the default rules' windows and thresholds: < 1 is hair-trigger
  /// (faster detection, more false positives), > 1 is conservative.  The
  /// quantity bench_health sweeps.
  double sensitivity = 1.0;
  /// Extra rules installed after the defaults.
  std::vector<HealthRule> rules;
};

/// The live plane: owns every series and rule, evaluates on demand, appends
/// alerts, and mirrors activity into the trace stream (for offline replay)
/// and the metrics registry (vdce.health.* counters/gauges).
class HealthPlane {
 public:
  HealthPlane() = default;
  explicit HealthPlane(HealthOptions options);

  HealthPlane(HealthPlane&&) = default;
  HealthPlane& operator=(HealthPlane&&) = default;

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }
  [[nodiscard]] const HealthOptions& options() const noexcept {
    return options_;
  }

  /// Attach trace/metrics sinks (either may be null).  A trace sink is kept
  /// only if it is enabled, so every record site tests one pointer.  A
  /// replayed plane (replay_trace) is never wired and so never re-emits.
  void wire(MetricsRegistry* metrics, TraceSink* trace);

  /// Emit the plane-configuration trace record.  Call once at bring-up,
  /// before any rule or series registration.
  void start(common::SimTime now);

  /// Find-or-create the series for `key` (created stamped `now`).  Returns
  /// null when the plane is disabled or the series cap is reached — callers
  /// must guard.  The pointer is stable for the plane's lifetime, so hot
  /// paths cache it.
  TimeSeries* series(const SeriesKey& key, common::SimTime now);
  /// Wall-clock variant: the series is excluded from tracing, replay, and
  /// rules (sim.events_per_sec).
  TimeSeries* wall_series(const SeriesKey& key, common::SimTime now);

  /// Record one sample.  The TimeSeries* overload is the zero-lookup hot
  /// path; `ts` may be null (no-op, so callers can cache the result of
  /// series() unguarded).
  void observe(TimeSeries* ts, common::SimTime time, double value);
  void observe(const SeriesKey& key, common::SimTime time, double value);
  /// Cumulative-counter feed: adds `delta` to the series' latest value and
  /// records the new total (burn-rate rules read the increase).
  void observe_delta(const SeriesKey& key, common::SimTime time,
                     double delta = 1.0);

  void add_rule(HealthRule rule, common::SimTime now);
  [[nodiscard]] const std::vector<HealthRule>& rules() const noexcept {
    return rules_;
  }

  /// Evaluate every rule against every matching series at `now`, emitting
  /// fire/clear transitions into the alert log (and the trace/metrics
  /// sinks).  Deterministic: rules in insertion order, each rule's series
  /// in registration order.  Cost: one window per (rule, matching series)
  /// binding, O(in-window points) each.
  void evaluate(common::SimTime now);

  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept {
    return alerts_;
  }
  [[nodiscard]] std::size_t active_alerts() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t series_count() const noexcept {
    return store_.size();
  }
  /// Every series in registration order (the deterministic iteration order
  /// evaluate() and the exporters use).
  [[nodiscard]] const std::vector<std::unique_ptr<TimeSeries>>& all_series()
      const noexcept {
    return store_;
  }

  /// OpenMetrics text exposition of the plane: per-series last value and
  /// windowed aggregates (mean/max/rate/p50/p99 over `window`), plus the
  /// alert gauges.  Ends with "# EOF".  Wall series are omitted unless
  /// `include_wall` (they would break byte-identical exports).
  [[nodiscard]] std::string to_openmetrics(common::SimTime now,
                                           common::SimDuration window = 10.0,
                                           bool include_wall = false) const;

 private:
  /// One series a rule applies to, with the rule's firing state on it.
  struct Binding {
    const TimeSeries* series = nullptr;
    bool firing = false;
    std::size_t alert = 0;  ///< index into alerts_ while firing
  };

  /// The one find-or-create path behind series() and wall_series(); also
  /// where a new series is bound to every rule that matches it.
  TimeSeries* register_series(const SeriesKey& key, common::SimTime now,
                              bool wall);
  /// Append `ts` to rule `r`'s bindings when the rule applies to it.
  void bind(std::size_t r, const TimeSeries& ts);
  /// The named counter, looked up on first use and cached in `slot`.
  Counter& cached_counter(Counter*& slot, const char* name);
  void emit_series_record(const TimeSeries& ts, common::SimTime now);
  void emit_transition(const HealthRule& rule, const TimeSeries& ts,
                       bool fire, common::SimTime now, double value);
  /// True (and fills value) when `rule` is in violation for `ts` at `now`.
  [[nodiscard]] bool violated(const HealthRule& rule, const TimeSeries& ts,
                              common::SimTime now, double& value) const;

  HealthOptions options_;
  std::map<SeriesKey, std::size_t> index_;
  std::vector<std::unique_ptr<TimeSeries>> store_;  ///< registration order
  std::vector<HealthRule> rules_;
  /// bindings_[r]: the series rule r applies to, in registration order.
  std::vector<std::vector<Binding>> bindings_;
  std::vector<Alert> alerts_;
  std::size_t active_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t samples_ = 0;
  mutable std::vector<double> scratch_;

  MetricsRegistry* metrics_ = nullptr;
  Counter* samples_counter_ = nullptr;      ///< vdce.health.samples
  Counter* evaluations_counter_ = nullptr;  ///< vdce.health.evaluations
  TraceSink* trace_ = nullptr;  ///< null unless wired to an enabled sink
  bool started_ = false;
};

// ---------------------------------------------------------------------------
// Default rule set
// ---------------------------------------------------------------------------

/// Parameters the default rules are derived from — runtime periods plus the
/// sensitivity multiplier (HealthOptions::sensitivity).
struct DefaultRuleParams {
  common::SimDuration monitor_period = 1.0;
  common::SimDuration cadence = 1.0;
  double sensitivity = 1.0;
  double overload_threshold = 2.5;
};

/// The rules installed when HealthOptions::default_rules is set:
///   monitor-stale     staleness on host.cpu_load   (crash / stale faults)
///   link-probe-stale  staleness on link.rtt        (partitions)
///   link-slow         threshold on link.rtt        (degraded links)
///   host-overload     sustained on host.cpu_load   (load spikes)
///   admission-backlog sustained on tenancy.queue_depth
///   quota-burn        burn-rate on tenancy.rejections
///   recovery-storm    burn-rate on recovery.actions
///   sched-slow        threshold on sched.decision_seconds
[[nodiscard]] std::vector<HealthRule> default_rules(
    const DefaultRuleParams& params);

// ---------------------------------------------------------------------------
// Detection scoring against chaos ground truth
// ---------------------------------------------------------------------------

/// One injected fault in topology-resolved form (ChaosInjector::
/// ground_truth()).  `kind` is the fault-class string: "crash", "degrade",
/// "partition", "loss", "slow", "stale".
struct GroundTruthFault {
  std::string kind;
  common::SimTime at = 0.0;
  common::SimDuration duration = 0.0;  ///< 0 = permanent
  std::int64_t host = -1;
  std::int64_t site = -1;    ///< site of `host`, or the stale-site target
  std::int64_t site_a = -1;  ///< partition / degrade pair
  std::int64_t site_b = -1;
};

struct DetectionOptions {
  /// An alert fired more than this long after the fault window ends no
  /// longer counts as detecting it.
  common::SimDuration max_latency = 30.0;
  /// End of the run; bounds the window of permanent (duration 0) faults.
  common::SimTime horizon = -1.0;
};

struct FaultDetection {
  GroundTruthFault fault;
  bool detected = false;
  common::SimTime detected_at = -1.0;
  common::SimDuration latency = -1.0;
  std::string rule{};  ///< the rule that detected it first
};

struct ClassScore {
  std::size_t total = 0;
  std::size_t detected = 0;
  common::Stats latency;  ///< over detected faults
  [[nodiscard]] double recall() const noexcept {
    return total == 0 ? 1.0
                      : static_cast<double>(detected) /
                            static_cast<double>(total);
  }
};

struct DetectionScore {
  std::vector<FaultDetection> faults;
  std::map<std::string, ClassScore> by_class;
  std::size_t true_positive_alerts = 0;
  std::size_t false_positive_alerts = 0;
  [[nodiscard]] double precision() const noexcept {
    std::size_t n = true_positive_alerts + false_positive_alerts;
    return n == 0 ? 1.0
                  : static_cast<double>(true_positive_alerts) /
                        static_cast<double>(n);
  }
  /// Deterministic text table (the bit-for-bit reproducibility artifact).
  [[nodiscard]] std::string render() const;
};

/// Match the alert log against injected ground truth.  A labelled alert
/// (host / site / link series) detects a fault when its labels match the
/// fault's targets and it fired inside [at, end + max_latency]; an
/// unlabelled control-plane alert (recovery storm, queue backlog) never
/// claims a detection but is excused from false-positive counting when any
/// fault window overlaps it.
[[nodiscard]] DetectionScore score_detections(
    const std::vector<GroundTruthFault>& faults,
    const std::vector<Alert>& alerts, const DetectionOptions& options = {});

// ---------------------------------------------------------------------------
// Offline replay from a parsed trace
// ---------------------------------------------------------------------------

/// The result of re-running the rule engine over the health.* records of a
/// JSONL trace: `plane` holds the reconstructed series and re-evaluated
/// alerts; `recorded` holds the alert stream as the live run emitted it.
/// matches() is the "offline must match live exactly" guarantee.
struct ReplayResult {
  HealthPlane plane;
  std::vector<Alert> recorded;
  [[nodiscard]] bool matches() const {
    return render_alerts(plane.alerts()) == render_alerts(recorded);
  }
};

/// Reconstruct the health plane from a parsed trace.  Fails (kParseError /
/// kNotFound) when the trace carries no health.config record or a record is
/// malformed.
[[nodiscard]] common::Expected<ReplayResult> replay_trace(
    const ParsedTrace& trace);

/// Payload of the health.probe / health.probe_reply fabric messages the
/// environment exchanges between site servers each cadence tick; the reply
/// feeds the link.rtt series partition detection watches.
struct HealthProbe {
  std::int64_t site_a = -1;
  std::int64_t site_b = -1;
  std::uint64_t seq = 0;
  common::SimTime sent = 0.0;
};

}  // namespace vdce::obs::health
