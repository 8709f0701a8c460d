// Frozen pre-redesign event kernel — DO NOT OPTIMISE.
//
// This is the engine as it stood before the zero-allocation redesign
// (sim/engine.hpp): a single std::priority_queue of events, each carrying a
// heap-allocated std::function callback and a shared_ptr<bool> cancellation
// flag.  It exists for two jobs only:
//
//   1. bench_sim_engine measures the redesigned kernel's events/sec against
//      this one and enforces the documented speedup floor (BENCH_SIM.json,
//      docs/SCALING.md).
//   2. test_sim_kernel's differential suite replays randomised
//      schedule/cancel/timer programs on both kernels and asserts the
//      firing order is identical event for event.
//
// Behavioural quirks are part of the freeze: cancelled events stay queued
// and advance the clock when popped, a stopped timer's pending tick still
// counts as fired, and `seq` is allocated once per schedule call (one per
// timer tick).  The redesigned kernel reproduces all of it byte for byte.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/time.hpp"

namespace vdce::sim::legacy {

class LegacyEventHandle {
 public:
  LegacyEventHandle() = default;
  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class LegacyEngine;
  explicit LegacyEventHandle(std::shared_ptr<bool> cancelled)
      : cancelled_(std::move(cancelled)) {}
  std::shared_ptr<bool> cancelled_;
};

class LegacyTimerHandle {
 public:
  LegacyTimerHandle() = default;
  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class LegacyEngine;
  explicit LegacyTimerHandle(std::shared_ptr<bool> stopped)
      : stopped_(std::move(stopped)) {}
  std::shared_ptr<bool> stopped_;
};

class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  LegacyEngine() = default;
  LegacyEngine(const LegacyEngine&) = delete;
  LegacyEngine& operator=(const LegacyEngine&) = delete;

  [[nodiscard]] common::SimTime now() const noexcept { return now_; }

  LegacyEventHandle schedule(common::SimDuration delay, Callback fn);
  LegacyEventHandle schedule_at(common::SimTime when, Callback fn);
  LegacyTimerHandle every(common::SimDuration period, Callback fn,
                          common::SimDuration initial_delay = -1.0);

  std::size_t run();
  std::size_t run_until(common::SimTime until);
  std::size_t run_steps(std::size_t max_events);

  void reserve_events(std::size_t n) { queue_.reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t total_fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept {
    return next_seq_;
  }
  [[nodiscard]] std::size_t max_queue_depth() const noexcept {
    return max_depth_;
  }

 private:
  struct Event {
    common::SimTime time;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Queue : std::priority_queue<Event, std::vector<Event>, Later> {
    void reserve(std::size_t n) { c.reserve(n); }
  };

  void step();

  common::SimTime now_ = common::kSimStart;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t max_depth_ = 0;
  Queue queue_;
};

}  // namespace vdce::sim::legacy
