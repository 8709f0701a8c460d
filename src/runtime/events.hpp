// The runtime's recovery and detection events (§4.1) and where each lands.
//
// Each failure detection, echo round, channel retry, overload termination
// and coordinator recovery action is one RuntimeEvent passed to
// RuntimeCore::emit().  Its kind's kRuntimeEvents row names what it writes:
// a flight record, a metrics counter, a health series and a trace instant.
// No other runtime file names them; docs/OBSERVABILITY.md lists every one
// (a tier-1 test checks).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"

namespace vdce::runtime {

enum class RuntimeEventKind : std::uint8_t {
  kFailureDetected,   ///< a group leader heard no echo from a member
  kEchoRound,         ///< a group leader opened an echo round
  kChannelAbandoned,  ///< a Data Manager gave up on a channel peer
  kChannelRetry,      ///< a Data Manager resent a channel setup
  kOverload,          ///< an Application Controller terminated a task
  kHostDown,          ///< a Site Manager marked a machine down
  kDisplace,          ///< a crash re-placed a committed reservation window
  kPin,               ///< an overloaded task past the attempt cap stays put
  kEscalation,        ///< an application's recovery budget ran out
  kReschedule,        ///< a task was re-placed on another machine
  kRelaunch,          ///< the allocation table was multicast again
  kStall,             ///< quiet sweeps: every unfinished task re-dispatched
};
inline constexpr std::size_t kRuntimeEventKinds = 12;

/// One event.  It owns nothing, so building and emitting one allocates
/// nothing.  Unset ids are obs::kNoCausalId; n and m are the kind's numbers,
/// named by the trace args of its row.
struct RuntimeEvent {
  RuntimeEventKind kind = RuntimeEventKind::kEchoRound;
  std::uint32_t track = obs::kControlTrack;  ///< the reporting daemon's host
  std::uint32_t host = obs::kNoCausalId;     ///< the host the event is about
  std::int64_t site = -1;  ///< that host's site, or the coordinator's
  std::uint32_t app = obs::kNoCausalId;
  std::uint32_t task = obs::kNoCausalId;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  double v = 0.0;            ///< an overloaded host's load
  std::string_view label{};  ///< a task's instance name or a recovery action
};
static_assert(std::is_trivially_copyable_v<RuntimeEvent>);

/// The event field a flight record's b or v is taken from.
enum class FlightField : std::uint8_t { kNone, kTask, kN, kV };

struct RuntimeEventRow {
  RuntimeEventKind kind = RuntimeEventKind::kEchoRound;  ///< = the row index
  /// The record's track is `host` when set, else `track`; its a is `app`.
  std::optional<obs::FlightCode> flight{};
  FlightField b = FlightField::kNone;
  FlightField v = FlightField::kNone;
  const char* counter = nullptr;  ///< created on the kind's first emit
  /// Bumped by 1 on the series labelled {host (-1 when unset), site}.
  const char* health = nullptr;
  const char* category = nullptr;  ///< trace category; nullptr: not traced
  const char* name = nullptr;      ///< trace instant name
  bool control_track = false;      ///< traced on kControlTrack, not `track`
  /// The instant's args, keys in recording order.
  std::vector<obs::TraceArg> (*args)(const RuntimeEvent&) = nullptr;
};

/// A traced event's causal tag is its app and task, when set.
inline constexpr std::array<RuntimeEventRow, kRuntimeEventKinds>
    kRuntimeEvents = [] {
  using enum FlightField;
  using K = RuntimeEventKind;
  using E = const RuntimeEvent&;
  using Args = std::vector<obs::TraceArg>;
  using obs::arg;
  using obs::FlightCode;
  const char* const actions = obs::health::kRecoveryActions;
  return std::array<RuntimeEventRow, kRuntimeEventKinds>{{
      {.kind = K::kFailureDetected, .flight = FlightCode::kHostDown,
       .counter = "monitor.failures_detected",
       .health = obs::health::kFailuresDetected, .category = "monitor",
       .name = "monitor.failure_detected",
       .args = [](E e) -> Args {
         return {arg("host", e.host), arg("round", e.n)};
       }},
      {.kind = K::kEchoRound, .counter = "monitor.echo_rounds",
       .category = "monitor", .name = "monitor.echo_round",
       .args = [](E e) -> Args {
         return {arg("group", e.m), arg("round", e.n)};
       }},
      {.kind = K::kChannelAbandoned, .counter = "recovery.channel_abandoned",
       .health = actions, .category = "recovery",
       .name = "recovery.channel_abandoned",
       .args = [](E e) -> Args {
         return {arg("app", e.app), arg("peer", e.m)};
       }},
      {.kind = K::kChannelRetry, .flight = FlightCode::kChannelRetry, .b = kN,
       .counter = "recovery.channel_retries", .health = actions,
       .category = "recovery", .name = "recovery.channel_retry",
       .args = [](E e) -> Args {
         return {arg("app", e.app), arg("peer", e.m), arg("attempt", e.n)};
       }},
      {.kind = K::kOverload, .flight = FlightCode::kOverload, .b = kTask,
       .v = kV, .counter = "recovery.overload_terminations",
       .health = actions, .category = "recovery", .name = "recovery.overload",
       .args = [](E e) -> Args {
         return {arg("app", e.app), arg("task", e.task), arg("load", e.v)};
       }},
      {.kind = K::kHostDown, .flight = FlightCode::kHostDown,
       .counter = "recovery.hosts_marked_down", .health = actions,
       .category = "recovery", .name = "recovery.host_down",
       .control_track = true,
       .args = [](E e) -> Args {
         return {arg("host", e.host), arg("site", e.site)};
       }},
      {.kind = K::kDisplace, .counter = "reservation.windows_displaced",
       .health = obs::health::kReservationDisplaced,
       .category = "reservation", .name = "reservation.displace",
       .control_track = true,
       .args = [](E e) -> Args {
         return {arg("booking", e.n), arg("from", e.host), arg("site", e.site)};
       }},
      {.kind = K::kPin, .counter = "recovery.task_pins", .health = actions},
      {.kind = K::kEscalation, .flight = FlightCode::kEscalation, .v = kN,
       .counter = "recovery.escalations", .health = actions,
       .category = "recovery", .name = "recovery.escalation",
       .control_track = true,
       .args = [](E e) -> Args {
         return {arg("app", e.app), arg("action", std::string(e.label)),
                 arg("actions", e.n)};
       }},
      {.kind = K::kReschedule, .flight = FlightCode::kRecovery, .b = kTask,
       .counter = "recovery.reschedules", .health = actions,
       .category = "recovery", .name = "recovery.reschedule",
       .control_track = true,
       .args = [](E e) -> Args {
         return {arg("task", std::string(e.label)), arg("from", e.host),
                 arg("to", e.m)};
       }},
      {.kind = K::kRelaunch, .flight = FlightCode::kRecovery,
       .counter = "recovery.relaunches", .health = actions,
       .category = "recovery", .name = "recovery.relaunch",
       .control_track = true,
       .args = [](E e) -> Args { return {arg("app", e.app)}; }},
      {.kind = K::kStall, .flight = FlightCode::kStall, .b = kN,
       .counter = "recovery.stall_resends", .health = actions,
       .category = "recovery", .name = "recovery.stall",
       .control_track = true,
       .args = [](E e) -> Args {
         return {arg("app", e.app), arg("done", e.n), arg("tasks", e.m)};
       }},
  }};
}();
// Rows follow the enum, every kind has a counter, and a traced kind has a
// category and args.
static_assert([] {
  for (std::size_t i = 0; i < kRuntimeEventKinds; ++i) {
    const RuntimeEventRow& r = kRuntimeEvents[i];
    if (static_cast<std::size_t>(r.kind) != i || r.counter == nullptr ||
        (r.name == nullptr) != (r.category == nullptr) ||
        (r.name == nullptr) != (r.args == nullptr)) {
      return false;
    }
  }
  return true;
}());

}  // namespace vdce::runtime
