#include "net/message.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <mutex>

namespace vdce::net {

namespace {

/// Process-wide id->name table.  Slots are written once, under the lock,
/// before their id is published; a fixed array never relocates, so readers
/// of published ids need no lock.
struct TypeTable {
  std::mutex mu;
  std::array<std::string, MsgType::kMaxTypes> names;  ///< names[0] == ""
  std::atomic<std::size_t> count{1};
};

TypeTable& table() {
  static TypeTable t;
  return t;
}

/// Linear scan of the published ids; the table is small and this runs only
/// when constants are initialised or a name is queried.
std::size_t index_of(const TypeTable& t, std::string_view name,
                     std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (t.names[i] == name) return i;
  }
  return count;
}

}  // namespace

MsgType::MsgType(std::string_view name) {
  TypeTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  const std::size_t count = t.count.load(std::memory_order_relaxed);
  std::size_t i = index_of(t, name, count);
  if (i == count) {
    if (count == kMaxTypes) {
      std::fprintf(stderr, "net::MsgType: more than %zu message types\n",
                   kMaxTypes);
      std::abort();
    }
    t.names[i] = std::string(name);
    t.count.store(count + 1, std::memory_order_release);
  }
  id_ = static_cast<std::uint16_t>(i);
}

MsgType MsgType::find(std::string_view name) {
  TypeTable& t = table();
  const std::size_t count = t.count.load(std::memory_order_acquire);
  const std::size_t i = index_of(t, name, count);
  return i == count ? MsgType{} : from_id(static_cast<std::uint16_t>(i));
}

std::size_t MsgType::count() noexcept {
  return table().count.load(std::memory_order_acquire);
}

const std::string& MsgType::name() const noexcept { return table().names[id_]; }

void Payload::type_mismatch() {
  std::fprintf(stderr,
               "net::Payload: get<T>() named a type the payload does not "
               "hold\n");
  std::abort();
}

}  // namespace vdce::net
