// Structured trace half of the observability layer (docs/OBSERVABILITY.md).
//
// A TraceSink collects typed span/instant records stamped with *simulated*
// time: scheduler phases, fabric transfers, daemon heartbeats, task
// executions, recovery actions.  Records are appended in the order the
// simulation produces them, which — because the engine is deterministic —
// makes the exported trace byte-identical across identical-seed runs.
//
// Records optionally carry **causal identity** (which application, which
// task, which producer task, which AFG dependencies) so the offline
// analyzer (obs/causal.hpp, tools/vdce-inspect) can reconstruct the
// per-application causal DAG and compute critical paths, per-resource
// timelines, and what-if slack — see the "Causal trace analysis" section of
// docs/OBSERVABILITY.md.
//
// Two exporters:
//  * JSONL: one JSON object per record, for diffing and ad-hoc analysis;
//    the export is self-describing (track metadata lines up front) and can
//    be parsed back losslessly with parse_jsonl().
//  * Chrome trace_event JSON: open the file in chrome://tracing or
//    https://ui.perfetto.dev to see per-site (pid) / per-host (tid)
//    timelines of a run.
//
// Zero-cost discipline: every instrumentation site guards on
// `sink.enabled()` (a single bool load) before building any record, so a
// disabled sink costs one predictable branch per site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"

namespace vdce::obs {

/// Track identity: which simulated entity an event happened on.  Host-side
/// events use the host id; coordinator/control-plane events that have no
/// single host use kControlTrack (rendered as the "control" timeline).
inline constexpr std::uint32_t kControlTrack = 0xFFFFFFFFu;

/// Sentinel for "no causal identity" on the optional app/task fields.
inline constexpr std::uint32_t kNoCausalId = 0xFFFFFFFFu;

enum class TracePhase { kSpan, kInstant };

[[nodiscard]] constexpr const char* to_string(TracePhase phase) {
  return phase == TracePhase::kSpan ? "span" : "instant";
}

/// A key/value annotation.  The value is pre-rendered; numbers are emitted
/// unquoted in JSON (rendering happens at record time so exports are pure
/// serialization).
struct TraceArg {
  std::string key;
  std::string value;
  bool is_number = false;
};

/// The JSON rendering every obs exporter shares.  Numbers use %.9g: the same
/// binary over the same event sequence renders identical bytes, which is
/// what the determinism guarantee needs.  Strings escape quotes,
/// backslashes and every control byte.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_escape(std::string_view s);

[[nodiscard]] TraceArg arg(std::string key, std::string value);
[[nodiscard]] TraceArg arg(std::string key, const char* value);
[[nodiscard]] TraceArg arg(std::string key, double value);
[[nodiscard]] TraceArg arg(std::string key, std::uint64_t value);
[[nodiscard]] TraceArg arg(std::string key, std::uint32_t value);
[[nodiscard]] TraceArg arg(std::string key, std::int64_t value);
[[nodiscard]] TraceArg arg(std::string key, int value);
[[nodiscard]] TraceArg arg(std::string key, bool value);

/// Causal identity of a record: which application/task it belongs to and
/// which tasks causally precede it.  All fields optional (kNoCausalId /
/// empty).  Semantics by record name:
///  * exec.task      — task = the executed task, deps = its AFG parents
///                     (task→task edges of the causal DAG);
///  * fabric.transfer — task = the consumer task the payload feeds,
///                     src_task = the producer (transfer→consumer edge);
///  * sched.*        — app = the application being scheduled
///                     (scheduler-decision→placement edge);
///  * recovery.*     — task = the task being re-placed; the next exec.task
///                     span of that task is the relaunched attempt
///                     (recovery-event→relaunched-span edge).
struct Causal {
  std::uint32_t app = kNoCausalId;
  std::uint32_t task = kNoCausalId;
  std::uint32_t src_task = kNoCausalId;
  std::vector<std::uint32_t> deps{};

  [[nodiscard]] bool empty() const noexcept {
    return app == kNoCausalId && task == kNoCausalId &&
           src_task == kNoCausalId && deps.empty();
  }
};

struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  std::string category;  ///< "sched", "fabric", "exec", "monitor", "recovery", "app"
  std::string name;      ///< e.g. "fabric.transfer", "sched.bid_gather"
  common::SimTime start = 0.0;
  common::SimDuration duration = 0.0;  ///< 0 for instants
  std::uint32_t track = kControlTrack;
  Causal causal;
  std::vector<TraceArg> args;

  [[nodiscard]] common::SimTime end() const noexcept {
    return start + duration;
  }

  /// The raw value of the first arg named `key`, or null if there is none.
  [[nodiscard]] const std::string* find_arg(std::string_view key) const {
    for (const TraceArg& a : args) {
      if (a.key == key) return &a.value;
    }
    return nullptr;
  }
};

/// Static description of one track (host): which site it belongs to and its
/// human-readable name.  Injected once at bring-up so exports can map
/// pid/tid to site/host and the offline analyzer can label resources.
struct TrackInfo {
  std::uint32_t track = kControlTrack;  ///< host id
  std::uint32_t site = kNoCausalId;
  std::string name;
};

struct TraceOptions {
  bool enabled = false;
  /// Hard cap on retained events; past it, new records are counted in
  /// dropped() instead of stored (bounded memory on long runs).
  std::size_t capacity = 1u << 20;
};

class TraceSink {
 public:
  TraceSink() = default;
  explicit TraceSink(TraceOptions options)
      : enabled_(options.enabled), capacity_(options.capacity) {}

  /// The guard every instrumentation site checks before building a record.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a span covering [start, end] in simulated time.  No-op (plus a
  /// drop count once full) when disabled or at capacity.
  void span(std::string category, std::string name, common::SimTime start,
            common::SimTime end, std::uint32_t track,
            std::vector<TraceArg> args = {}, Causal causal = {});

  /// Record a point event at `time`.
  void instant(std::string category, std::string name, common::SimTime time,
               std::uint32_t track, std::vector<TraceArg> args = {},
               Causal causal = {});

  /// Track metadata (host → site/name), set once at environment bring-up.
  /// Exports embed it so offline tools can label resources.
  void set_tracks(std::vector<TrackInfo> tracks) {
    tracks_ = std::move(tracks);
  }
  [[nodiscard]] const std::vector<TrackInfo>& tracks() const noexcept {
    return tracks_;
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  void clear();

  /// Count of retained events whose name starts with `name_prefix`.
  [[nodiscard]] std::size_t count(std::string_view name_prefix) const;

  /// One JSON object per line: track-metadata lines first, then every event
  /// in recording order, e.g.
  ///   {"meta":"track","track":4,"site":1,"name":"m4"}
  ///   {"phase":"span","cat":"exec","name":"combine","t":3.25,"dur":1.5,
  ///    "track":4,"app":1,"task":2,"deps":[0,1],"args":{"app":1}}
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace_event "JSON Object Format": {"traceEvents":[...]} with
  /// complete ("X") and instant ("i") events, timestamps in microseconds of
  /// simulated time.  With track metadata set, pid = site (process_name
  /// "site N") and tid = host (thread_name = host name), so Perfetto renders
  /// one process group per site and one lane per host.
  [[nodiscard]] std::string to_chrome_trace() const;

  common::Status write_jsonl(const std::string& path) const;
  common::Status write_chrome_trace(const std::string& path) const;

 private:
  void push(TraceEvent event);

  bool enabled_ = false;
  std::size_t capacity_ = 1u << 20;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<TrackInfo> tracks_;
};

/// A parsed JSONL export: the same (tracks, events) pair a live TraceSink
/// holds, reconstructed offline.  render_jsonl(parsed) reproduces the input
/// byte-for-byte, which the round-trip tests assert.
struct ParsedTrace {
  std::vector<TrackInfo> tracks;
  std::vector<TraceEvent> events;
};

/// Exporters over raw (tracks, events) — what the TraceSink methods and the
/// offline vdce-inspect tool share.
[[nodiscard]] std::string render_jsonl(const std::vector<TrackInfo>& tracks,
                                       const std::vector<TraceEvent>& events);
[[nodiscard]] std::string render_chrome_trace(
    const std::vector<TrackInfo>& tracks,
    const std::vector<TraceEvent>& events);

/// Parse a JSONL export produced by to_jsonl()/render_jsonl().  Lossless:
/// number-valued args keep their raw token text, so re-rendering a parse
/// result is byte-identical to the input.  Fails (kParseError) on the first
/// malformed line, naming its line number.
[[nodiscard]] common::Expected<ParsedTrace> parse_jsonl(std::string_view text);

}  // namespace vdce::obs
