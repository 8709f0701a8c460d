// Discrete-event simulation kernel.
//
// VDCE's runtime daemons — monitor daemons measuring loads, group managers
// sending echo packets, site managers refreshing repositories, data-manager
// transfers, task executions — are all processes in simulated time.  The
// paper ran them as Unix daemons against the wall clock on a campus testbed;
// here they are callbacks against a virtual clock, which makes every
// experiment deterministic and lets a bench compress hours of monitoring
// into milliseconds (see DESIGN.md "Substitutions").
//
// The kernel is redesigned for zero per-event heap allocation (DESIGN.md
// "Event kernel"):
//
//   * Callbacks are sim::Task (task.hpp): fixed inline storage, so no
//     closure ever heap-allocates the way std::function did.
//   * Events live in an engine-owned arena of slots recycled through a free
//     list; EventHandle/TimerHandle are generation-checked slot indices, so
//     cancellation needs no shared_ptr<bool> control block per event.
//   * Pending events are small (time, seq, slot) entries, so ordering
//     never touches the arena.  `seq` is a monotonically increasing
//     tiebreaker: events scheduled earlier at the same timestamp fire
//     first, which is what makes multi-daemon interleavings reproducible.
//   * One-shot events and each timer's first tick wait in one binary
//     min-heap.  A periodic timer's re-arms wait in the FIFO lane of its
//     exact period instead: a re-arm is stamped (now + period, next seq),
//     the clock never runs backwards, floating-point addition of a fixed
//     period is monotone, and seq only grows, so every lane receives its
//     entries already in (time, seq) order and its front is its minimum.
//     The next event is the earliest of the heap top and the lane fronts
//     under the same (time, seq) order, so the firing sequence is the
//     heap-only kernel's by construction — while the daemons' ticks, half
//     of a fleet run's events, never pay a heap push or pop.
//
// In the steady state (arena, heap and lanes warm) schedule/fire/cancel
// touches the allocator zero times — proven by operator-new counting tests
// in tests/test_sim_kernel.cpp.
//
// Single-threaded by design: determinism is worth more to a scheduling
// study than parallel event execution, and the event volumes here (1e5-1e7
// per bench) run in well under a second.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/task.hpp"

namespace vdce::sim {

class Engine;

/// Handle to a scheduled event; lets the owner cancel it (e.g. a pending
/// task start after a reschedule, or a periodic timer on daemon shutdown).
///
/// A handle is a generation-checked index into the engine's event arena:
/// copying it copies two integers and an engine anchor, and once the event
/// has fired (or the slot has been recycled, or the engine destroyed) every
/// operation degrades to a safe no-op.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet.  Safe to call repeatedly,
  /// after the event has fired, and after the engine has been destroyed
  /// (no-op in all three cases).
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class Engine;
  EventHandle(std::shared_ptr<Engine*> anchor, std::uint32_t slot,
              std::uint32_t gen)
      : anchor_(std::move(anchor)), slot_(slot), gen_(gen) {}

  /// Points at the owning engine; the engine's destructor nulls the pointee
  /// so stale handles outliving the engine stay safe.  The control block is
  /// allocated once per engine, not per event.
  std::shared_ptr<Engine*> anchor_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Handle to a periodic timer; cancel() stops future firings.
class TimerHandle {
 public:
  TimerHandle() = default;
  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class Engine;
  TimerHandle(std::shared_ptr<Engine*> anchor, std::uint32_t slot,
              std::uint32_t gen)
      : anchor_(std::move(anchor)), slot_(slot), gen_(gen) {}
  std::shared_ptr<Engine*> anchor_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

namespace detail {

/// A queue entry: everything the pending set needs to order and dispatch an
/// event without touching its arena slot.
struct QueueEntry {
  common::SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Strict (time, seq) "earlier-than" — the kernel's total event order.
inline bool earlier(const QueueEntry& a, const QueueEntry& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Constrains the Engine's emplace overloads to real callables (and keeps
/// Task itself on the by-value overloads).
template <typename F>
using enable_if_callable =
    std::enable_if_t<!std::is_same_v<std::decay_t<F>, Task> &&
                     std::is_invocable_r_v<void, std::decay_t<F>&>>;

/// The one-shot pending set: a binary min-heap in (time, seq) order.
class BinaryHeapQueue {
 public:
  void push(QueueEntry e);
  QueueEntry pop_min();
  [[nodiscard]] const QueueEntry& min_entry() const { return heap_.front(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  std::vector<QueueEntry> heap_;  // std::*_heap on !earlier (min-heap)
};

/// The pending re-arms of every periodic timer with one exact period: a
/// FIFO ring that receives entries in (time, seq) order (see the header
/// comment), so its front is its minimum.  Each timer has at most one
/// pending tick, so the ring never holds more entries than the lane has
/// live timers; add_timer() grows it up front, and push_back never
/// allocates.
class TimerLane {
 public:
  explicit TimerLane(common::SimDuration period) : period_(period) {}

  [[nodiscard]] common::SimDuration period() const noexcept {
    return period_;
  }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const QueueEntry& front() const { return ring_[head_]; }

  void push_back(QueueEntry e) {
    assert(size_ < ring_.size());
    assert(size_ == 0 || !earlier(e, ring_[(head_ + size_ - 1) & mask()]));
    ring_[(head_ + size_) & mask()] = e;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// A timer joins the lane; the ring doubles if it could overflow.
  void add_timer();
  void remove_timer() { --timers_; }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return ring_.size() - 1; }

  common::SimDuration period_;
  std::vector<QueueEntry> ring_;  // power-of-two capacity (or empty)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t timers_ = 0;  // live timers on this period
};

}  // namespace detail

/// The simulation engine.  Not thread-safe: all scheduling happens from the
/// driving thread or from within event callbacks.
class Engine {
 public:
  /// Callback type; any callable whose closure fits Task's inline buffer.
  using Callback = Task;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] common::SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(common::SimDuration delay, Task fn);

  /// Schedule `fn` at an absolute time >= now().
  EventHandle schedule_at(common::SimTime when, Task fn);

  /// Emplace overloads: a callable (not yet a Task) is constructed directly
  /// into its arena slot — zero intermediate relocations of the closure.
  /// Overload resolution prefers these for lambdas (no Task conversion
  /// needed), so every existing call site gets the fast path for free.
  template <typename F, typename = detail::enable_if_callable<F>>
  EventHandle schedule(common::SimDuration delay, F&& fn) {
    assert(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }
  template <typename F, typename = detail::enable_if_callable<F>>
  EventHandle schedule_at(common::SimTime when, F&& fn) {
    const std::uint32_t slot = emplace_event(when, std::forward<F>(fn), kNil);
    return EventHandle(self_, slot, slots_[slot].gen);
  }

  /// Fire-and-forget scheduling: like schedule()/schedule_at() but returns
  /// no handle, so the caller skips the handle's anchor refcount entirely.
  /// The natural form for deliveries and completions nobody ever cancels
  /// (most fabric and daemon traffic).
  template <typename F, typename = detail::enable_if_callable<F>>
  void post(common::SimDuration delay, F&& fn) {
    assert(delay >= 0.0);
    emplace_event(now_ + delay, std::forward<F>(fn), kNil);
  }
  template <typename F, typename = detail::enable_if_callable<F>>
  void post_at(common::SimTime when, F&& fn) {
    emplace_event(when, std::forward<F>(fn), kNil);
  }
  void post(common::SimDuration delay, Task fn);
  void post_at(common::SimTime when, Task fn);

  /// Fire `fn` every `period` seconds, first firing after `initial_delay`
  /// (nullopt = one full period).  The callback may cancel the timer.
  TimerHandle every(common::SimDuration period, Task fn,
                    std::optional<common::SimDuration> initial_delay = {});

  template <typename F, typename = detail::enable_if_callable<F>>
  TimerHandle every(common::SimDuration period, F&& fn,
                    std::optional<common::SimDuration> initial_delay = {}) {
    const std::uint32_t timer = alloc_timer();
    timers_[timer].fn = std::forward<F>(fn);  // in place, stable address
    return arm_timer(timer, period, initial_delay);
  }

  /// Run until the event queue is empty.  Returns the number of events fired.
  std::size_t run();

  /// Run until the clock would pass `until` (events at exactly `until` are
  /// fired).  The clock is left at `until` even if the queue drains early,
  /// so successive run_until calls observe monotonic time.
  std::size_t run_until(common::SimTime until);

  /// Run at most `max_events` events; used as a watchdog in tests.
  std::size_t run_steps(std::size_t max_events);

  /// Pre-size the event arena and the pending set.  Grid-scale bring-up
  /// schedules one timer per daemon per host up front; reserving once
  /// avoids repeated regrowth while the simulation is running.
  void reserve_events(std::size_t n);

  [[nodiscard]] bool empty() const noexcept { return queue_size() == 0; }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_size();
  }
  [[nodiscard]] std::uint64_t total_fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept {
    return next_seq_;
  }
  /// High-water mark of the event queue — the observability layer exports
  /// this as the `sim.max_queue_depth` gauge.
  [[nodiscard]] std::size_t max_queue_depth() const noexcept {
    return max_depth_;
  }

  // --- arena accounting (exported as sim.arena_* gauges) -----------------
  /// Event slots currently allocated (backing capacity of the arena).
  [[nodiscard]] std::size_t arena_capacity() const noexcept {
    return slots_.size();
  }
  /// Event slots currently holding a pending (or cancelled-pending) event.
  [[nodiscard]] std::size_t arena_live() const noexcept { return live_; }
  /// High-water mark of live event slots.
  [[nodiscard]] std::size_t arena_high_water() const noexcept {
    return arena_high_water_;
  }
  /// Timer slots ever allocated (timers are recycled through their own
  /// free list).
  [[nodiscard]] std::size_t timer_capacity() const noexcept {
    return timers_.size();
  }

  // --- throughput accounting (exported as sim.events_per_sec) ------------
  /// Wall-clock seconds spent inside run()/run_until()/run_steps().
  [[nodiscard]] double wall_seconds_in_run() const noexcept {
    return wall_seconds_;
  }
  /// Events fired per wall-clock second of run time (0 before any run).
  [[nodiscard]] double events_per_sec() const noexcept {
    return wall_seconds_ > 0.0 ? static_cast<double>(fired_) / wall_seconds_
                               : 0.0;
  }

 private:
  friend class EventHandle;
  friend class TimerHandle;

  static constexpr std::uint32_t kNil = 0xffffffffu;

  enum class SlotState : std::uint8_t { kFree, kScheduled, kCancelled };

  /// One arena slot.  `timer != kNil` marks a periodic-timer tick: the
  /// callback then lives in the timer slot (stable across firings), not
  /// here.
  struct Slot {
    Task fn;
    common::SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
    std::uint32_t timer = kNil;
    SlotState state = SlotState::kFree;
  };

  /// A periodic timer.  Lives in a deque so the Task stays at a stable
  /// address even if a timer callback registers new timers mid-fire.
  struct TimerSlot {
    Task fn;
    std::uint32_t lane = kNil;  ///< index into lanes_ (holds the period)
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
    bool active = false;
  };

  // Handle back-ends (generation-checked; stale handles are no-ops).
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool event_pending(std::uint32_t slot,
                                   std::uint32_t gen) const;
  void cancel_timer(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool timer_active(std::uint32_t slot, std::uint32_t gen) const;

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  std::uint32_t alloc_timer();
  void free_timer(std::uint32_t slot);

  /// Allocate a slot, stamp (time, seq), and enqueue.  Returns the slot.
  /// Takes Task&& so a caller's closure is relocated exactly once (into the
  /// arena slot), not staged through a by-value parameter.
  std::uint32_t push_event(common::SimTime when, Task&& fn,
                           std::uint32_t timer);

  /// Like push_event, but constructs the callable in the slot (no Task
  /// staging at all) — the emplace overloads' backend.
  template <typename F>
  std::uint32_t emplace_event(common::SimTime when, F&& fn,
                              std::uint32_t timer) {
    assert(when >= now_);
    const std::uint32_t slot = alloc_slot();
    slots_[slot].fn = std::forward<F>(fn);
    stamp_and_enqueue(slot, when, timer);
    return slot;
  }

  /// Shared tail of push_event/emplace_event: stamp (time, seq), mark
  /// scheduled, push onto the heap.
  void stamp_and_enqueue(std::uint32_t slot, common::SimTime when,
                         std::uint32_t timer);

  /// Stamp (time, seq) into `slot` and mark it scheduled; returns the entry
  /// to enqueue.
  detail::QueueEntry stamp(std::uint32_t slot, common::SimTime when,
                           std::uint32_t timer);

  /// Count one more pending entry and track the high-water mark.
  void note_enqueued() noexcept {
    ++pending_;
    if (pending_ > max_depth_) max_depth_ = pending_;
  }

  /// The lane of timers with exactly `period`, created on first use.
  std::uint32_t lane_for(common::SimDuration period);

  /// Shared tail of every(): join the period's lane, mark active, schedule
  /// the first tick.  The callable is already in timers_[timer].fn.
  TimerHandle arm_timer(std::uint32_t timer, common::SimDuration period,
                        std::optional<common::SimDuration> initial_delay);

  [[nodiscard]] std::size_t queue_size() const noexcept { return pending_; }

  /// The earliest pending entry and where it waits.
  struct Next {
    detail::QueueEntry entry;
    std::uint32_t lane;  ///< index into lanes_, or kNil for the heap top
  };

  /// Find the earliest pending entry; false if nothing is pending.
  bool peek(Next& next) const;

  /// Pop `next` (the result of the last peek) and fire it.
  void step(const Next& next);

  common::SimTime now_ = common::kSimStart;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t max_depth_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
  std::size_t arena_high_water_ = 0;

  std::deque<TimerSlot> timers_;
  std::uint32_t timer_free_head_ = kNil;

  detail::BinaryHeapQueue heap_;
  std::vector<detail::TimerLane> lanes_;
  std::size_t pending_ = 0;  // entries in the heap and all lanes

  double wall_seconds_ = 0.0;

  /// Engine-lifetime anchor shared with every handle; nulled on destruction.
  std::shared_ptr<Engine*> self_;
};

}  // namespace vdce::sim
