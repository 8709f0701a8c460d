// sim::Task — the event kernel's callback type.
//
// A move-only type-erased callable with fixed inline storage, sized so that
// every in-tree closure (the largest is the fabric's delivery lambda, which
// carries a whole net::Message with its inline payload) fits without
// touching the heap.  This is
// what makes the engine's schedule/fire/cancel loop allocation-free: a
// std::function would heap-allocate any capture larger than its small-buffer
// optimisation (typically 16 bytes — i.e. almost every real closure in this
// codebase), and the old kernel paid exactly that cost once per event.
//
// The size is a hard contract, not a heuristic: construction static_asserts
// that the callable fits, so a capture that outgrows the buffer is a compile
// error at the call site (fix it by capturing indices into owner-side state,
// as chaos::ChaosInjector does for its stale-monitor windows) rather than a
// silent fallback to allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vdce::sim {

class Task {
 public:
  /// Inline capture budget, in bytes.  Chosen to fit the largest in-tree
  /// closure with headroom (net::Fabric's `[this, m = std::move(msg)]` is
  /// 88 bytes on LP64: an 80-byte net::Message with its 32-byte inline
  /// payload); revisit only with a size audit — every event slot in the
  /// engine arena embeds one Task.
  static constexpr std::size_t kInlineBytes = 128;

  Task() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor) — callables convert
  // implicitly, exactly as they did with std::function.
  Task(F&& fn) {  // NOLINT
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "closure exceeds sim::Task inline storage; capture indices "
                  "into owner-side state instead of large objects");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "sim::Task requires nothrow-move-constructible closures "
                  "(arena slots relocate on vector growth)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    invoke_ = [](void* s) { (*static_cast<Fn*>(s))(); };
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      // Trivially relocatable closure (the common case: captures are PODs,
      // pointers, indices): one shared memcpy relocator for every size, so
      // the engine's move-out-then-invoke step is a plain copy instead of
      // an indirect per-type move+destroy pair.
      relocate_ = &trivial_relocate<sizeof(Fn)>;
    } else {
      relocate_ = [](void* src, void* dst) noexcept {
        Fn* f = static_cast<Fn*>(src);
        if (dst != nullptr) ::new (dst) Fn(std::move(*f));
        f->~Fn();
      };
    }
  }

  /// Assign a callable directly: destroys the old callable and constructs
  /// the new one in place.  The engine's emplace path uses this to build a
  /// closure straight into its arena slot with zero intermediate
  /// relocations.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task& operator=(F&& fn) {
    reset();
    ::new (static_cast<void*>(this)) Task(std::forward<F>(fn));
    return *this;
  }

  Task(Task&& other) noexcept { move_from(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  /// Destroy the held callable (no-op when empty).
  void reset() noexcept {
    if (relocate_ != nullptr) relocate_(storage_, nullptr);
    invoke_ = nullptr;
    relocate_ = nullptr;
  }

 private:
  template <std::size_t N>
  static void trivial_relocate(void* src, void* dst) noexcept {
    if (dst != nullptr) __builtin_memcpy(dst, src, N);
  }

  void move_from(Task& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    if (other.relocate_ != nullptr) other.relocate_(other.storage_, storage_);
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  /// Manual two-entry vtable: invoke, and relocate-or-destroy (dst==nullptr
  /// destroys in place; otherwise move-construct into dst then destroy src).
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void* src, void* dst) noexcept = nullptr;
};

static_assert(sizeof(Task) == Task::kInlineBytes + 2 * sizeof(void*),
              "Task layout: inline buffer + two function pointers");

}  // namespace vdce::sim
