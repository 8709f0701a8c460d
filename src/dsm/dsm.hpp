// Distributed Shared Memory — the paper's stated future work (§5): "We are
// also implementing a distributed shared memory model that will allow VDCE
// users to describe their applications using a shared memory paradigm."
//
// Design: an object-granularity, home-based MSI invalidation protocol —
// the standard software-DSM recipe of the era (Ivy/TreadMarks lineage),
// matched to VDCE's fabric:
//
//  * Every shared object has a *home* host.  The home holds the directory
//    (current owner, copyset of sharers) and the fallback copy.
//  * Read miss: ask the home (dsm.get).  If another host owns a modified
//    copy the home recalls it (dsm.fetch -> dsm.fetch_resp, owner
//    downgrades M->S), then answers with data; the reader joins the
//    copyset.
//  * Write miss/upgrade: the home invalidates every sharer (dsm.inv ->
//    dsm.inv_ack), recalls the owner if any, then grants exclusive
//    ownership with the data.
//  * The home serializes requests per object (a queue of pending requests
//    drains one at a time), which gives sequential consistency per object;
//    cross-object ordering is the application's job via the lock manager.
//
//  * Locks: a home-based queue lock (dsm.lock / dsm.unlock / dsm.grant).
//    Acquire/release plus the invalidation protocol give the usual
//    data-race-free programming model.
//
// The client API is asynchronous — simulated time passes while the
// protocol runs — so "threads" of a shared-memory application are
// continuation chains:
//
//   client.acquire("lock", [&](){
//     client.read("counter", [&](tasklib::Value v) {
//       int c = std::any_cast<int>(v);
//       client.write("counter", c + 1, [&](){
//         client.release("lock", [](){});
//       });
//     });
//   });
//
// Statistics (hits, misses, invalidations, forwards, bytes) feed the DSM
// experiment (bench_dsm), which contrasts sharing patterns against raw
// message passing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "tasklib/registry.hpp"

namespace vdce::dsm {

/// Cache state of an object at one node (MSI).
enum class CacheState { kInvalid, kShared, kModified };

constexpr const char* to_string(CacheState s) {
  switch (s) {
    case CacheState::kInvalid: return "I";
    case CacheState::kShared: return "S";
    case CacheState::kModified: return "M";
  }
  return "?";
}

struct DsmStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t owner_recalls = 0;
  std::uint64_t lock_grants = 0;

  void reset() { *this = DsmStats{}; }
};

class DsmRuntime;

/// Per-host client handle.  All operations are asynchronous: the callback
/// fires (possibly later in simulated time) when the operation completes.
class DsmClient {
 public:
  using ReadCallback = std::function<void(tasklib::Value)>;
  using DoneCallback = std::function<void()>;

  /// Read the object's current value (S or M locally, else fetched).
  void read(const std::string& name, ReadCallback on_value);

  /// Write a new value (acquires exclusive ownership first).
  void write(const std::string& name, tasklib::Value value,
             DoneCallback on_done);

  /// Acquire / release a named mutex (FIFO queue at its home).
  void acquire(const std::string& lock_name, DoneCallback on_acquired);
  void release(const std::string& lock_name, DoneCallback on_released);

  /// Arrive at a named barrier of `parties` participants; the callback
  /// fires once all parties of the current generation have arrived.  The
  /// barrier is reusable (generations are implicit).
  void barrier(const std::string& barrier_name, std::size_t parties,
               DoneCallback on_released);

  [[nodiscard]] common::HostId host() const noexcept { return host_; }
  /// Local cache state of an object (tests/observability).
  [[nodiscard]] CacheState state(const std::string& name) const;

 private:
  friend class DsmRuntime;
  DsmClient(DsmRuntime& runtime, common::HostId host)
      : runtime_(&runtime), host_(host) {}
  DsmRuntime* runtime_;
  common::HostId host_;
};

/// The DSM service: owns per-host protocol state and binds to the fabric
/// alongside the regular host agents (its messages are routed here by type
/// prefix "dsm.").
class DsmRuntime {
 public:
  /// `home_of` maps an object/lock name to its home host; defaults to a
  /// deterministic hash over the topology's hosts.
  DsmRuntime(net::Fabric& fabric, std::vector<common::HostId> hosts);

  DsmRuntime(const DsmRuntime&) = delete;
  DsmRuntime& operator=(const DsmRuntime&) = delete;

  /// Create (or reset) a shared object with an initial value, stored at its
  /// home.  `size_bytes` is charged to the wire for every data transfer.
  void define_object(const std::string& name, tasklib::Value initial,
                     double size_bytes);

  /// Client handle for code "running on" `host`.
  [[nodiscard]] DsmClient client(common::HostId host);

  /// Dispatch a "dsm.*" message (called by the environment's host agents).
  void handle(const net::Message& message);
  /// True for the protocol's own message types (name prefix "dsm.").
  [[nodiscard]] static bool handles(net::MsgType type);

  [[nodiscard]] common::HostId home_of(const std::string& name) const;
  [[nodiscard]] const DsmStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The value at the home (after recalling the owner it is authoritative;
  /// tests use it for final-state checks without protocol traffic).
  [[nodiscard]] common::Expected<tasklib::Value> home_value(
      const std::string& name) const;

 private:
  friend class DsmClient;

  struct ObjectHome {
    tasklib::Value value;            ///< valid when no remote owner
    double size_bytes = 256;
    common::HostId owner;            ///< valid() when a host holds M
    std::set<common::HostId> sharers;
    /// Requests serialized at the home; front is in service.
    struct Pending {
      common::HostId requester;
      bool exclusive = false;
      std::uint64_t op = 0;
      tasklib::Value new_value;  ///< for write requests: the value to install
    };
    std::deque<Pending> queue;
    bool busy = false;
    int inv_acks_outstanding = 0;
  };

  struct CachedCopy {
    CacheState state = CacheState::kInvalid;
    tasklib::Value value;
  };

  struct LockHome {
    bool held = false;
    common::HostId holder;
    std::deque<std::pair<common::HostId, std::uint64_t>> waiters;
  };

  struct BarrierHome {
    /// Arrivals of the current generation: (host, op) pairs released
    /// together when the generation fills.
    std::vector<std::pair<common::HostId, std::uint64_t>> arrived;
  };

  struct LocalOps {
    // Continuations keyed by operation id.
    std::unordered_map<std::uint64_t, DsmClient::ReadCallback> reads;
    std::unordered_map<std::uint64_t, DsmClient::DoneCallback> dones;
    // Per (host, object) cache.
    std::unordered_map<std::string, CachedCopy> cache;
  };

  void client_read(common::HostId host, const std::string& name,
                   DsmClient::ReadCallback cb);
  void client_write(common::HostId host, const std::string& name,
                    tasklib::Value value, DsmClient::DoneCallback cb);
  void client_acquire(common::HostId host, const std::string& name,
                      DsmClient::DoneCallback cb);
  void client_release(common::HostId host, const std::string& name,
                      DsmClient::DoneCallback cb);
  void client_barrier(common::HostId host, const std::string& name,
                      std::size_t parties, DsmClient::DoneCallback cb);

  void home_service_next(const std::string& name);
  void home_grant(const std::string& name, const ObjectHome::Pending& req);
  /// Send one protocol message; the payload travels shared (dsm.cpp).
  template <typename T>
  void send(common::HostId from, common::HostId to, net::MsgType type,
            double bytes, T payload);

  net::Fabric& fabric_;
  std::vector<common::HostId> hosts_;
  std::map<std::string, ObjectHome> objects_;  ///< indexed at the home
  std::map<std::string, LockHome> locks_;
  std::map<std::string, BarrierHome> barriers_;
  std::unordered_map<common::HostId, LocalOps> local_;
  DsmStats stats_;
  std::uint64_t next_op_ = 1;
};

}  // namespace vdce::dsm
