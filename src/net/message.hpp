// net::Message — one fabric message: routing, an interned type id, the wire
// size charged to the link, and a typed payload held inline.
//
// The message is the unit the event kernel carries from send to delivery
// (the fabric's delivery closure holds a whole Message inside sim::Task's
// inline buffer), so nothing in it may touch the heap on the control plane:
//
//  * MsgType is a 16-bit id interned from the type's name ("gm.echo").  An
//    id->name table gives traces, per-type statistics and FaultPlan
//    `type_prefix` matching the same strings the protocol always printed,
//    while dispatch and counting compare integers.
//  * Payload keeps its value in a fixed inline buffer, the same trick
//    sim::Task uses for closures.  Construction static_asserts that the
//    value fits, so an oversize payload is a compile error at the send
//    site, never a silent heap fallback.  Larger structs travel as a
//    `std::shared_ptr<const T>` (one allocation per send, shared by every
//    multicast destination), as the runtime's execution plan does.
//
// The net layer stays agnostic of the protocols above it: it neither knows
// the set of message types nor the payload structs — senders and receivers
// agree on both, and a receiver reading the wrong type aborts loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/ids.hpp"
#include "obs/obs.hpp"

namespace vdce::net {

using common::HostId;

/// Interned message-type name.  Ids are dense and process-wide; the same
/// name always maps to the same id.  Interning takes a lock and is meant
/// for namespace-scope constants (`inline const MsgType kX{"x.y"}`) and
/// tests, not for the send path.
class MsgType {
 public:
  /// Capacity of the id->name table (and of per-type counter arrays).
  static constexpr std::size_t kMaxTypes = 128;

  /// Id 0: the empty name (a default-constructed message).
  constexpr MsgType() noexcept = default;
  /// Intern `name`.  Aborts when the table is full.
  explicit MsgType(std::string_view name);

  /// The id of an already-interned name; the default type when `name` was
  /// never interned (never allocates a new id).
  [[nodiscard]] static MsgType find(std::string_view name);
  /// Number of ids handed out so far; ids are dense in [0, count()).
  [[nodiscard]] static std::size_t count() noexcept;
  /// The type with id `id` (which must be < count()).
  [[nodiscard]] static constexpr MsgType from_id(std::uint16_t id) noexcept {
    MsgType t;
    t.id_ = id;
    return t;
  }

  [[nodiscard]] constexpr std::uint16_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept;

  friend constexpr bool operator==(MsgType a, MsgType b) noexcept {
    return a.id_ == b.id_;
  }

 private:
  std::uint16_t id_ = 0;
};

/// Typed, inline, copyable message payload.  Holds nothing or one value of
/// any type of at most kInlineBytes bytes; readers name the type they
/// expect with get<T>().
class Payload {
 public:
  /// Inline capacity in bytes.  Sized for the largest inline control
  /// payload (monitor reports and health probes, 32 bytes); larger structs
  /// travel as `std::shared_ptr<const T>` (16 bytes).
  static constexpr std::size_t kInlineBytes = 32;

  Payload() noexcept = default;

  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Payload>>>
  // NOLINTNEXTLINE(google-explicit-constructor) — values convert implicitly
  // so a Message aggregate reads `Message{src, dst, type, size, Report{..}}`.
  Payload(T&& value) {  // NOLINT
    using V = std::decay_t<T>;
    static_assert(sizeof(V) <= kInlineBytes,
                  "payload exceeds net::Payload inline storage; send it as "
                  "std::shared_ptr<const T> instead");
    static_assert(alignof(V) <= alignof(std::uint64_t),
                  "over-aligned payloads are not supported");
    static_assert(std::is_nothrow_move_constructible_v<V>,
                  "net::Payload requires nothrow-move-constructible values");
    ::new (static_cast<void*>(storage_)) V(std::forward<T>(value));
    ops_ = &kOps<V>;
  }

  Payload(const Payload& other) : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->copy(other.storage_, storage_);
  }
  Payload(Payload&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  ~Payload() { reset(); }

  [[nodiscard]] bool has_value() const noexcept { return ops_ != nullptr; }

  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return ops_ == &kOps<T>;
  }

  /// The held value; aborts when the payload holds another type (a
  /// protocol bug: sender and receiver disagree on the message's struct).
  template <typename T>
  [[nodiscard]] const T& get() const {
    if (!holds<T>()) type_mismatch();
    return *std::launder(reinterpret_cast<const T*>(storage_));
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  /// Manual vtable.  `destroy` is null for trivially destructible values.
  struct Ops {
    void (*copy)(const void* src, void* dst);
    void (*relocate)(void* src, void* dst) noexcept;  ///< move, destroy src
    void (*destroy)(void* p) noexcept;
  };

  template <std::size_t N>
  static void trivial_copy(const void* src, void* dst) {
    __builtin_memcpy(dst, src, N);
  }
  template <std::size_t N>
  static void trivial_relocate(void* src, void* dst) noexcept {
    __builtin_memcpy(dst, src, N);
  }

  template <typename V>
  static constexpr Ops make_ops() noexcept {
    if constexpr (std::is_trivially_copyable_v<V>) {
      return Ops{&trivial_copy<sizeof(V)>, &trivial_relocate<sizeof(V)>,
                 nullptr};
    } else {
      return Ops{
          [](const void* src, void* dst) {
            ::new (dst) V(*static_cast<const V*>(src));
          },
          [](void* src, void* dst) noexcept {
            V* v = static_cast<V*>(src);
            ::new (dst) V(std::move(*v));
            v->~V();
          },
          [](void* p) noexcept { static_cast<V*>(p)->~V(); }};
    }
  }
  /// One table per payload type; its address doubles as the type tag.
  template <typename V>
  static constexpr Ops kOps = make_ops<V>();

  [[noreturn]] static void type_mismatch();

  alignas(std::uint64_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Causal identity a sender may stamp on a message so the trace layer can
/// link the resulting `fabric.transfer` span into the per-application causal
/// DAG (obs/causal.hpp): which application the bytes belong to, which task
/// consumes them, and which task produced them.  All-default means "control
/// traffic" and adds nothing to the record.
struct MessageCause {
  std::uint32_t app = obs::kNoCausalId;
  std::uint32_t task = obs::kNoCausalId;      ///< consumer task
  std::uint32_t src_task = obs::kNoCausalId;  ///< producer task
};

struct Message {
  HostId src;
  HostId dst;
  MsgType type;            ///< e.g. "gm.echo", "sm.rat", "dm.data"
  double size_bytes = 64;  ///< wire size charged to the link (headers incl.)
  Payload payload;
  MessageCause cause{};    ///< optional causal tag (data-plane traffic)
};

}  // namespace vdce::net
