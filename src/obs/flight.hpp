// Flight recorder: an always-on, fixed-size ring of the most recent
// noteworthy runtime events, kept even when tracing is disabled.
//
// The full TraceSink answers "what happened?" for runs you *planned* to
// observe.  The flight recorder answers "what just happened?" for runs you
// didn't: when recovery escalates past its budget or an environment call
// fails, the environment dumps the ring to a post-mortem file
// (EnvironmentOptions::flight.postmortem_path) so the last N events before
// the failure are never lost.
//
// Cost discipline (this is the always-on path, so it is the one that has to
// be free): records are POD, the ring is preallocated at construction, and
// record() is a handful of stores — no allocation, no branching beyond the
// enabled check.  A disabled recorder costs a single bool load per site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"

namespace vdce::obs {

/// What kind of event a FlightRecord describes.  The track and the a/b/v
/// fields are interpreted per code (documented inline); uint32 max marks an
/// unused field.  The recovery codes are written through the runtime's
/// event table (runtime/events.hpp).
enum class FlightCode : std::uint8_t {
  kAppStart = 0,      ///< a = app id
  kAppDone,           ///< a = app id, b = 1 if success else 0, v = makespan
  kTaskStart,         ///< a = app id, b = task id
  kTaskDone,          ///< a = app id, b = task id, v = duration
  kTransfer,          ///< a = src host, b = dst host, v = bytes
  kHostDown,          ///< track = host that went down (detected or marked)
  /// a = app id.  A re-placement: track = the abandoned host, b = task id.
  /// A relaunch (allocation table re-sent): track = the coordinator's
  /// server, no b.
  kRecovery,
  kEscalation,        ///< track = coordinator's server, a = app id,
                      ///< v = actions consumed
  kStall,             ///< track = coordinator's server, a = app id,
                      ///< b = tasks done so far
  kOverload,          ///< track = host, a = app id, b = task id, v = host load
  kChannelRetry,      ///< track = retrying host, a = app id, b = attempt
  kSchedule,          ///< a = app id, v = scheduling cost estimate
  kBringUpFailed,     ///< control-plane bring-up failure
  kRunFailed,         ///< a = app id if known
};

[[nodiscard]] const char* to_string(FlightCode code);

/// One ring slot.  POD on purpose: recording is a memcpy-grade operation.
struct FlightRecord {
  common::SimTime t = 0.0;
  FlightCode code = FlightCode::kAppStart;
  std::uint32_t track = 0xFFFFFFFFu;  ///< host id or kControlTrack
  std::uint32_t a = 0xFFFFFFFFu;
  std::uint32_t b = 0xFFFFFFFFu;
  double v = 0.0;
};

struct FlightOptions {
  /// On by default — the whole point is capturing runs nobody planned to
  /// observe.  Turn off to shave the last branch per site in benchmarks.
  bool enabled = true;
  /// Ring capacity (records). Memory is capacity * sizeof(FlightRecord),
  /// allocated once at construction.
  std::size_t capacity = 1024;
  /// Where the environment writes the post-mortem dump on failure; empty
  /// disables dumping (the ring still records).
  std::string postmortem_path = "vdce-postmortem.jsonl";
};

class FlightRecorder {
 public:
  FlightRecorder() : FlightRecorder(FlightOptions{}) {}
  explicit FlightRecorder(const FlightOptions& options)
      : enabled_(options.enabled),
        capacity_(options.capacity == 0 ? 1 : options.capacity) {
    ring_.resize(capacity_);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// The hot path: a guarded handful of stores into the preallocated ring.
  void record(common::SimTime t, FlightCode code,
              std::uint32_t track = 0xFFFFFFFFu,
              std::uint32_t a = 0xFFFFFFFFu, std::uint32_t b = 0xFFFFFFFFu,
              double v = 0.0) noexcept {
    if (!enabled_) return;
    FlightRecord& slot = ring_[head_];
    slot.t = t;
    slot.code = code;
    slot.track = track;
    slot.a = a;
    slot.b = b;
    slot.v = v;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++total_;
  }

  /// Total records ever seen (>= retained count; the excess wrapped).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// JSONL rendering of snapshot(), e.g.
  ///   {"t":3.25,"code":"task_done","track":4,"a":1,"b":2,"v":1.5}
  /// plus a trailing summary line with total/retained counts.
  [[nodiscard]] std::string render_jsonl() const;

  /// Write render_jsonl() to `path`.
  common::Status dump(const std::string& path) const;

  void clear() noexcept {
    head_ = 0;
    total_ = 0;
  }

 private:
  bool enabled_ = true;
  std::size_t capacity_ = 1024;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::vector<FlightRecord> ring_;
};

}  // namespace vdce::obs
