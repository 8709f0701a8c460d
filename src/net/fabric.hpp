// Message fabric: the in-process substitute for VDCE's socket plumbing.
//
// Every control- and data-plane interaction in the paper — the Site Manager
// multicasting the resource allocation table, Group Managers sending echo
// packets, Data Manager proxies exchanging setup/ACK, inter-task transfers —
// is a message from one host to another.  The fabric delivers messages on
// the simulation clock after the topology's transfer time for the message
// size, and enforces failure semantics: messages to or from a down host are
// silently dropped (exactly the behaviour echo-based failure detection
// relies on, §4.1).
//
// Messages (net/message.hpp) carry an interned type id and a typed payload
// held inline, so a send allocates nothing and the fabric still knows
// neither the protocols above it nor their structs: each layer interns its
// own type names and defines its own payloads.  Per-type statistics are an
// id-indexed array, resolved to names only when queried.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace vdce::net {

/// Per-fabric traffic counters, broken down by message type — the raw data
/// behind the monitoring-overhead experiment (E4) and Fig. 4's message-flow
/// accounting.
struct FabricStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_dst_down = 0;
  std::uint64_t dropped_src_down = 0;
  std::uint64_t dropped_unbound = 0;
  /// Messages dropped by an installed FaultInterceptor (partitions and
  /// transient-loss windows of the chaos plane).
  std::uint64_t dropped_injected = 0;
  double bytes_sent = 0.0;
  /// Messages sent per type, indexed by MsgType id.
  std::array<std::uint64_t, MsgType::kMaxTypes> sent_per_type{};

  /// Messages sent of the type named `type` (0 for a name never sent).
  [[nodiscard]] std::uint64_t sent_by_type(std::string_view type) const {
    return sent_per_type[MsgType::find(type).id()];
  }
  /// Every type sent at least once with its count, sorted by type name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  sent_types() const;

  void reset() { *this = FabricStats{}; }
};

/// Fault-injection hook (implemented by chaos::ChaosInjector).  Consulted on
/// every send: the interceptor may drop the message outright (a partition or
/// a transient-loss window) or degrade the link spec used to time the
/// transfer.  An interface so the net layer stays independent of the chaos
/// subsystem above it.
class FaultInterceptor {
 public:
  virtual ~FaultInterceptor() = default;

  /// True = silently drop this message (the sender still observes a normal
  /// send, exactly like a lossy wire).
  virtual bool should_drop(const Message& msg) = 0;

  /// Return the (possibly degraded) link spec to use for this transfer.
  virtual LinkSpec adjust_link(HostId src, HostId dst, LinkSpec link) = 0;
};

/// The fabric.  One per simulated environment; not thread-safe (runs inside
/// the single-threaded simulation).
///
/// Contention model: by default links have unlimited capacity (transfers
/// never interact).  With `set_shared_segments(true)` each LAN behaves as
/// the shared Ethernet segment of the era and each WAN site-pair as one
/// serial pipe: a transfer occupies its segment for `bytes/bandwidth`, and
/// concurrent transfers queue FIFO behind it (latency is propagation and is
/// not serialized).  Loopback traffic never contends.
class Fabric {
 public:
  using Handler = std::function<void(const Message&)>;

  Fabric(sim::Engine& engine, Topology& topology)
      : engine_(engine), topology_(topology) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Install the message dispatcher for a host (its "node daemon").  Each
  /// host has exactly one handler; layers above demultiplex on `type`.
  void bind(HostId host, Handler handler);

  /// Remove a host's handler (host decommissioned).
  void unbind(HostId host);

  /// Send a message.  Delivery is scheduled `transfer_time(src, dst, size)`
  /// in the future; the message is dropped if the source is down now or the
  /// destination is down / unbound at delivery time.  Returns the scheduled
  /// delivery time (even if the message may later be dropped), or an error
  /// if the source host is already down.
  common::Expected<common::SimTime> send(Message msg);

  /// Send the same message to many destinations ("multicast" in the paper —
  /// implemented as iterated unicast, as site-to-site multicast was).
  void multicast(HostId src, const std::vector<HostId>& dsts, MsgType type,
                 double size_bytes, const Payload& payload);

  [[nodiscard]] const FabricStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Attach a fault interceptor (null detaches).  See FaultInterceptor.
  void set_fault_interceptor(FaultInterceptor* interceptor) {
    fault_ = interceptor;
  }

  /// Attach the environment's observability instance (null detaches).  With
  /// metrics on, every send feeds per-link-class transfer histograms; with
  /// tracing on, every send records a `fabric.transfer` span from emission
  /// to scheduled delivery.  Disabled observability costs one branch.
  void set_observability(obs::Observability* obs);

  /// Enable/disable shared-segment contention (see class comment).
  void set_shared_segments(bool on) { shared_segments_ = on; }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] Topology& topology() noexcept { return topology_; }

 private:
  void deliver(Message msg);

  /// Segment identity for contention: one per site LAN, one per WAN pair.
  [[nodiscard]] std::uint64_t segment_key(HostId src, HostId dst) const;

  /// Link class of a (src, dst) pair for per-link metric breakdown.
  enum class LinkClass { kLoopback, kLan, kWan };
  [[nodiscard]] LinkClass link_class(HostId src, HostId dst) const;

  sim::Engine& engine_;
  Topology& topology_;
  std::unordered_map<HostId, Handler> handlers_;
  FabricStats stats_;
  FaultInterceptor* fault_ = nullptr;
  obs::Observability* obs_ = nullptr;
  /// Cached metric handles (valid for the registry's lifetime), so the send
  /// hot path never performs a name lookup.
  common::Stats* bytes_hist_[3] = {nullptr, nullptr, nullptr};
  common::Stats* latency_hist_[3] = {nullptr, nullptr, nullptr};
  bool shared_segments_ = false;
  /// When shared_segments_: time each segment finishes its queued transfers.
  std::unordered_map<std::uint64_t, common::SimTime> segment_busy_until_;
};

}  // namespace vdce::net
