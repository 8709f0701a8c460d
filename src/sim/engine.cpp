#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace vdce::sim {

namespace detail {
namespace {

/// Heap comparator: std::*_heap builds a max-heap, so "greater" on the
/// (time, seq) order yields a min-heap with the earliest entry on top.
/// A stateless functor (not a function pointer) so every comparison in the
/// sift loops inlines.
struct LaterCmp {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
    return earlier(b, a);
  }
};
constexpr LaterCmp later_cmp{};

}  // namespace

void BinaryHeapQueue::push(QueueEntry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later_cmp);
}

QueueEntry BinaryHeapQueue::pop_min() {
  std::pop_heap(heap_.begin(), heap_.end(), later_cmp);
  const QueueEntry e = heap_.back();
  heap_.pop_back();
  return e;
}

void TimerLane::add_timer() {
  if (++timers_ <= ring_.size()) return;
  std::vector<QueueEntry> grown(ring_.empty() ? 4 : ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) {
    grown[i] = ring_[(head_ + i) & mask()];
  }
  ring_ = std::move(grown);
  head_ = 0;
}

}  // namespace detail

// ---- handles ---------------------------------------------------------------

void EventHandle::cancel() {
  if (!anchor_) return;
  if (Engine* engine = *anchor_) engine->cancel_event(slot_, gen_);
}

bool EventHandle::pending() const {
  if (!anchor_) return false;
  const Engine* engine = *anchor_;
  return engine != nullptr && engine->event_pending(slot_, gen_);
}

void TimerHandle::cancel() {
  if (!anchor_) return;
  if (Engine* engine = *anchor_) engine->cancel_timer(slot_, gen_);
}

bool TimerHandle::active() const {
  if (!anchor_) return false;
  const Engine* engine = *anchor_;
  return engine != nullptr && engine->timer_active(slot_, gen_);
}

// ---- engine ----------------------------------------------------------------

Engine::Engine() : self_(std::make_shared<Engine*>(this)) {}

Engine::~Engine() { *self_ = nullptr; }

void Engine::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.state != SlotState::kScheduled || s.gen != gen) return;
  // The entry stays in the queue (the old kernel kept cancelled events
  // queued too — popping one advances the clock without firing); only the
  // callback is released now so captured resources free promptly.
  s.state = SlotState::kCancelled;
  s.fn.reset();
}

bool Engine::event_pending(std::uint32_t slot, std::uint32_t gen) const {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.state == SlotState::kScheduled && s.gen == gen;
}

void Engine::cancel_timer(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= timers_.size()) return;
  TimerSlot& t = timers_[slot];
  if (!t.active || t.gen != gen) return;
  // The pending tick still fires (uncounted work, exactly like the old
  // kernel's stopped-flag check) and recycles the timer slot.
  t.active = false;
}

bool Engine::timer_active(std::uint32_t slot, std::uint32_t gen) const {
  if (slot >= timers_.size()) return false;
  const TimerSlot& t = timers_[slot];
  return t.active && t.gen == gen;
}

std::uint32_t Engine::alloc_slot() {
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  ++live_;
  if (live_ > arena_high_water_) arena_high_water_ = live_;
  return slot;
}

void Engine::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;  // invalidates every outstanding handle to this slot
  s.state = SlotState::kFree;
  s.timer = kNil;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

std::uint32_t Engine::alloc_timer() {
  std::uint32_t slot;
  if (timer_free_head_ != kNil) {
    slot = timer_free_head_;
    timer_free_head_ = timers_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(timers_.size());
    timers_.emplace_back();
  }
  return slot;
}

void Engine::free_timer(std::uint32_t slot) {
  TimerSlot& t = timers_[slot];
  t.fn.reset();
  ++t.gen;
  t.active = false;
  lanes_[t.lane].remove_timer();
  t.lane = kNil;
  t.next_free = timer_free_head_;
  timer_free_head_ = slot;
}

std::uint32_t Engine::push_event(common::SimTime when, Task&& fn,
                                 std::uint32_t timer) {
  assert(when >= now_);
  const std::uint32_t slot = alloc_slot();
  slots_[slot].fn = std::move(fn);
  stamp_and_enqueue(slot, when, timer);
  return slot;
}

detail::QueueEntry Engine::stamp(std::uint32_t slot, common::SimTime when,
                                 std::uint32_t timer) {
  Slot& s = slots_[slot];
  s.time = when;
  s.seq = next_seq_++;
  s.timer = timer;
  s.state = SlotState::kScheduled;
  return detail::QueueEntry{when, s.seq, slot};
}

void Engine::stamp_and_enqueue(std::uint32_t slot, common::SimTime when,
                               std::uint32_t timer) {
  heap_.push(stamp(slot, when, timer));
  note_enqueued();
}

std::uint32_t Engine::lane_for(common::SimDuration period) {
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].period() == period) return i;
  }
  lanes_.emplace_back(period);
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

EventHandle Engine::schedule(common::SimDuration delay, Task fn) {
  assert(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Engine::schedule_at(common::SimTime when, Task fn) {
  assert(when >= now_);
  assert(fn);
  const std::uint32_t slot = push_event(when, std::move(fn), kNil);
  return EventHandle(self_, slot, slots_[slot].gen);
}

void Engine::post(common::SimDuration delay, Task fn) {
  assert(delay >= 0.0);
  post_at(now_ + delay, std::move(fn));
}

void Engine::post_at(common::SimTime when, Task fn) {
  assert(when >= now_);
  assert(fn);
  push_event(when, std::move(fn), kNil);
}

TimerHandle Engine::every(common::SimDuration period, Task fn,
                          std::optional<common::SimDuration> initial_delay) {
  assert(fn);
  const std::uint32_t timer = alloc_timer();
  timers_[timer].fn = std::move(fn);
  return arm_timer(timer, period, initial_delay);
}

TimerHandle Engine::arm_timer(std::uint32_t timer, common::SimDuration period,
                              std::optional<common::SimDuration> initial_delay) {
  assert(period > 0.0);
  const common::SimDuration first = initial_delay.value_or(period);
  assert(first >= 0.0);
  TimerSlot& t = timers_[timer];
  t.lane = lane_for(period);
  lanes_[t.lane].add_timer();
  t.active = true;
  // The first tick goes through the heap: its phase is arbitrary, so only
  // the re-arms are in their lane's order.
  push_event(now_ + first, Task{}, timer);
  return TimerHandle(self_, timer, timers_[timer].gen);
}

void Engine::reserve_events(std::size_t n) {
  slots_.reserve(n);
  heap_.reserve(n);
}

bool Engine::peek(Next& next) const {
  bool found = !heap_.empty();
  if (found) next = Next{heap_.min_entry(), kNil};
  // A linear scan: the workloads arm at most four distinct periods.
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    const detail::TimerLane& lane = lanes_[i];
    if (lane.empty()) continue;
    if (!found || detail::earlier(lane.front(), next.entry)) {
      next = Next{lane.front(), i};
      found = true;
    }
  }
  return found;
}

void Engine::step(const Next& next) {
  const detail::QueueEntry e = next.entry;
  if (next.lane == kNil) {
    heap_.pop_min();
  } else {
    lanes_[next.lane].pop_front();
  }
  --pending_;
  assert(e.time >= now_);
  now_ = e.time;
  Slot& s = slots_[e.slot];
  assert(s.state != SlotState::kFree && s.seq == e.seq);
  const std::uint32_t timer = s.timer;
  if (s.state == SlotState::kCancelled) {
    free_slot(e.slot);
    return;
  }
  ++fired_;
  if (timer == kNil) {
    // Move the callback out and recycle the slot *before* invoking: a
    // cancel() of this event's own handle from inside the callback is then
    // a harmless generation miss, and the callback may freely schedule new
    // events (possibly reusing this very slot, or growing the arena).
    Task fn = std::move(s.fn);
    free_slot(e.slot);
    fn();
  } else {
    free_slot(e.slot);
    if (!timers_[timer].active) {
      // cancel() landed between ticks: this pop is the cleanup.
      free_timer(timer);
      return;
    }
    // timers_ is a deque, so the callback stays at a stable address even
    // if it registers new timers mid-fire.
    timers_[timer].fn();
    const TimerSlot& t = timers_[timer];
    if (!t.active) {
      free_timer(timer);  // cancelled from inside its own callback
      return;
    }
    detail::TimerLane& lane = lanes_[t.lane];
    lane.push_back(stamp(alloc_slot(), now_ + lane.period(), timer));
    note_enqueued();
  }
}

std::size_t Engine::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t before = fired_;
  Next next;
  while (peek(next)) {
    // Overlap the arena-slot fetch with the pop bookkeeping.
    __builtin_prefetch(&slots_[next.entry.slot], 1);
    step(next);
  }
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<std::size_t>(fired_ - before);
}

std::size_t Engine::run_until(common::SimTime until) {
  assert(until >= now_);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t before = fired_;
  Next next;
  while (peek(next) && next.entry.time <= until) {
    __builtin_prefetch(&slots_[next.entry.slot], 1);
    step(next);
  }
  now_ = until;
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<std::size_t>(fired_ - before);
}

std::size_t Engine::run_steps(std::size_t max_events) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t before = fired_;
  Next next;
  while (fired_ - before < max_events && peek(next)) {
    __builtin_prefetch(&slots_[next.entry.slot], 1);
    step(next);
  }
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<std::size_t>(fired_ - before);
}

}  // namespace vdce::sim
