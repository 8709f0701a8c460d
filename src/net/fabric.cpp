#include "net/fabric.hpp"

#include <algorithm>
#include <utility>

namespace vdce::net {

std::vector<std::pair<std::string, std::uint64_t>> FabricStats::sent_types()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t id = 0; id < MsgType::count(); ++id) {
    if (sent_per_type[id] == 0) continue;
    out.emplace_back(MsgType::from_id(static_cast<std::uint16_t>(id)).name(),
                     sent_per_type[id]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Fabric::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ != nullptr && obs_->metrics_on()) {
    static const char* kBytes[3] = {"fabric.transfer_bytes.loopback",
                                    "fabric.transfer_bytes.lan",
                                    "fabric.transfer_bytes.wan"};
    static const char* kLatency[3] = {"fabric.transfer_seconds.loopback",
                                      "fabric.transfer_seconds.lan",
                                      "fabric.transfer_seconds.wan"};
    for (int i = 0; i < 3; ++i) {
      bytes_hist_[i] = &obs_->metrics().histogram(kBytes[i]);
      latency_hist_[i] = &obs_->metrics().histogram(kLatency[i]);
    }
  } else {
    for (int i = 0; i < 3; ++i) bytes_hist_[i] = latency_hist_[i] = nullptr;
  }
}

Fabric::LinkClass Fabric::link_class(HostId src, HostId dst) const {
  if (src == dst) return LinkClass::kLoopback;
  return topology_.host(src).site == topology_.host(dst).site ? LinkClass::kLan
                                                              : LinkClass::kWan;
}

void Fabric::bind(HostId host, Handler handler) {
  assert(handler);
  // Bring-up binds every host in sequence; size the table once instead of
  // rehashing through the growth doublings at grid scale.
  if (handlers_.empty()) handlers_.reserve(topology_.host_count());
  handlers_[host] = std::move(handler);
}

void Fabric::unbind(HostId host) { handlers_.erase(host); }

common::Expected<common::SimTime> Fabric::send(Message msg) {
  assert(msg.src.valid() && msg.dst.valid());
  assert(msg.size_bytes >= 0.0);

  if (!topology_.host_up(msg.src)) {
    ++stats_.dropped_src_down;
    return common::Error{common::ErrorCode::kHostDown,
                         "source host is down: " + topology_.host(msg.src).spec.name};
  }

  ++stats_.sent;
  stats_.bytes_sent += msg.size_bytes;
  ++stats_.sent_per_type[msg.type.id()];

  LinkSpec link = topology_.link_between(msg.src, msg.dst);
  if (fault_ != nullptr) {
    link = fault_->adjust_link(msg.src, msg.dst, link);
    if (fault_->should_drop(msg)) {
      // The sender observes a normal send (a lossy wire gives no feedback);
      // the message simply never arrives.
      ++stats_.dropped_injected;
      return engine_.now() + link.transfer_time(msg.size_bytes);
    }
  }

  common::SimTime when;
  if (shared_segments_ && msg.src != msg.dst) {
    // Queue behind earlier transfers on the same segment; occupy it for
    // the serialization time, then propagate.
    double serialization = msg.size_bytes / link.bandwidth_bps;
    common::SimTime& busy = segment_busy_until_[segment_key(msg.src, msg.dst)];
    common::SimTime start = std::max(engine_.now(), busy);
    busy = start + serialization;
    when = busy + link.latency;
  } else {
    when = engine_.now() + link.transfer_time(msg.size_bytes);
  }
  if (obs_ != nullptr) {
    const auto cls = static_cast<int>(link_class(msg.src, msg.dst));
    if (bytes_hist_[cls] != nullptr) {
      bytes_hist_[cls]->add(msg.size_bytes);
      latency_hist_[cls]->add(when - engine_.now());
    }
    if (obs_->trace_on()) {
      obs_->trace().span(
          "fabric", "fabric.transfer", engine_.now(), when, msg.src.value(),
          {obs::arg("type", msg.type.name()), obs::arg("bytes", msg.size_bytes),
           obs::arg("src", msg.src.value()), obs::arg("dst", msg.dst.value())},
          obs::Causal{msg.cause.app, msg.cause.task, msg.cause.src_task, {}});
    }
  }
  engine_.post(when - engine_.now(),
               [this, m = std::move(msg)]() mutable { deliver(std::move(m)); });
  return when;
}

std::uint64_t Fabric::segment_key(HostId src, HostId dst) const {
  common::SiteId a = topology_.host(src).site;
  common::SiteId b = topology_.host(dst).site;
  auto lo = std::min(a.value(), b.value());
  auto hi = std::max(a.value(), b.value());
  // Intra-site: (site, site) keys the LAN; inter-site: the ordered pair.
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void Fabric::multicast(HostId src, const std::vector<HostId>& dsts,
                       MsgType type, double size_bytes,
                       const Payload& payload) {
  for (HostId dst : dsts) {
    // Failure of one destination must not abort the rest of the multicast.
    (void)send(Message{src, dst, type, size_bytes, payload});
  }
}

void Fabric::deliver(Message msg) {
  if (!topology_.host_up(msg.dst)) {
    ++stats_.dropped_dst_down;
    return;
  }
  auto it = handlers_.find(msg.dst);
  if (it == handlers_.end()) {
    ++stats_.dropped_unbound;
    return;
  }
  ++stats_.delivered;
  it->second(msg);
}

}  // namespace vdce::net
