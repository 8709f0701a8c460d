#include "chaos/injector.hpp"

#include <algorithm>
#include <utility>

#include "common/strings.hpp"

namespace vdce::chaos {

namespace {

using common::Error;
using common::ErrorCode;
using common::Expected;
using common::HostId;
using common::SiteId;
using common::Status;

/// Unordered site-pair match (a degrade/partition between 0 and 1 affects
/// traffic in both directions; (s, s) names the site's own LAN).
bool pair_matches(SiteId x, SiteId y, SiteId a, SiteId b) {
  return (x == a && y == b) || (x == b && y == a);
}

std::string host_label(const net::Topology& topology, HostId host) {
  return "host " + std::to_string(host.value()) + " (" +
         topology.host(host).spec.name + ")";
}

}  // namespace

ChaosInjector::ChaosInjector(sim::Engine& engine, net::Topology& topology,
                             obs::Observability* obs, FaultPlan plan)
    : engine_(engine),
      topology_(topology),
      obs_(obs),
      plan_(std::move(plan)),
      rng_(plan_.seed()) {}

Status ChaosInjector::arm() {
  if (armed_) {
    return Error{ErrorCode::kInvalidArgument, "fault plan already armed"};
  }
  if (Status valid = plan_.validate(); !valid.ok()) return valid;

  // Resolve every reference up front so a bad plan fails before anything is
  // scheduled (an arm is all-or-nothing).
  std::vector<HostId> resolved(plan_.events().size(), HostId{});
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent& e = plan_.events()[i];
    if (!e.host.empty()) {
      Expected<HostId> host = resolve(e.host);
      if (!host.has_value()) return host.error();
      resolved[i] = host.value();
    }
    for (std::int64_t s : {e.site_a, e.site_b}) {
      if (s >= 0 && static_cast<std::size_t>(s) >= topology_.site_count()) {
        return Error{ErrorCode::kNotFound,
                     "fault plan references site " + std::to_string(s) +
                         " but the topology has only " +
                         std::to_string(topology_.site_count()) + " sites"};
      }
    }
  }
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    schedule_event(i, resolved[i]);
  }
  resolved_hosts_ = std::move(resolved);
  armed_ = true;
  return Status::success();
}

std::vector<obs::health::GroundTruthFault> ChaosInjector::ground_truth() const {
  std::vector<obs::health::GroundTruthFault> truth;
  if (!armed_) return truth;
  truth.reserve(plan_.events().size());
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent& e = plan_.events()[i];
    obs::health::GroundTruthFault f;
    f.kind = to_string(e.kind);
    f.at = e.at;
    f.duration = e.duration;
    if (!e.host.empty()) {
      const HostId host = resolved_hosts_[i];
      f.host = static_cast<std::int64_t>(host.value());
      f.site = static_cast<std::int64_t>(topology_.host(host).site.value());
    } else if (e.kind == FaultKind::kStaleMonitor ||
               e.kind == FaultKind::kMessageLoss) {
      f.site = e.site_a;  // site-wide window (stale site N / loss site N)
    }
    if (e.kind == FaultKind::kLinkDegrade || e.kind == FaultKind::kPartition) {
      f.site_a = std::min(e.site_a, e.site_b);
      f.site_b = std::max(e.site_a, e.site_b);
    }
    truth.push_back(std::move(f));
  }
  return truth;
}

Expected<HostId> ChaosInjector::resolve(const HostRef& ref) const {
  if (ref.id >= 0) {
    if (static_cast<std::size_t>(ref.id) >= topology_.host_count()) {
      return Error{ErrorCode::kNotFound,
                   "fault plan references host " + std::to_string(ref.id) +
                       " but the topology has only " +
                       std::to_string(topology_.host_count()) + " hosts"};
    }
    return HostId{static_cast<std::uint32_t>(ref.id)};
  }
  Expected<HostId> host = topology_.find_host(ref.name);
  if (!host.has_value()) {
    return Error{ErrorCode::kNotFound,
                 "fault plan references unknown host \"" + ref.name + "\""};
  }
  return host;
}

Expected<SiteId> ChaosInjector::resolve_site(std::int64_t site) const {
  if (site < 0 || static_cast<std::size_t>(site) >= topology_.site_count()) {
    return Error{ErrorCode::kNotFound,
                 "fault plan references unknown site " + std::to_string(site)};
  }
  return SiteId{static_cast<std::uint32_t>(site)};
}

std::vector<HostId> ChaosInjector::stale_targets(const FaultEvent& event,
                                                 HostId host) const {
  if (!event.host.empty()) return {host};
  const SiteId site{static_cast<std::uint32_t>(event.site_a)};
  return topology_.site(site).hosts;
}

void ChaosInjector::schedule_event(std::size_t index, HostId host) {
  // The callbacks below capture (this, index, host) only and re-read the
  // event from the injector-owned plan when they fire: a FaultEvent's
  // strings would overflow sim::Task's inline capture budget, and the plan
  // is immutable once armed, so the indirection changes nothing observable.
  const FaultEvent& event = plan_.events()[index];
  const common::SimDuration delay =
      std::max(0.0, event.at - engine_.now());

  switch (event.kind) {
    case FaultKind::kHostCrash: {
      engine_.schedule(delay, [this, host] {
        topology_.set_host_up(host, false);
        ++faults_injected_;
        record("crash " + host_label(topology_, host));
        trace_instant("chaos.crash", {obs::arg("host", host.value())});
      });
      if (event.duration > 0.0) {
        engine_.schedule(delay + event.duration, [this, host] {
          // A reboot comes back clean: no residual load, no placed tasks.
          net::Host& h = topology_.host(host);
          h.state.up = true;
          h.state.cpu_load = 0.0;
          h.state.available_mb = h.spec.memory_mb;
          h.state.running_tasks = 0;
          record("reboot " + host_label(topology_, host));
          trace_instant("chaos.reboot", {obs::arg("host", host.value())});
        });
      }
      break;
    }
    case FaultKind::kLinkDegrade: {
      const SiteId a{static_cast<std::uint32_t>(event.site_a)};
      const SiteId b{static_cast<std::uint32_t>(event.site_b)};
      const double lx = event.latency_x;
      const double bx = event.bandwidth_x;
      engine_.schedule(delay, [this, a, b, lx, bx] {
        degrades_.push_back(ActiveDegrade{a, b, lx, bx});
        ++faults_injected_;
        record("degrade site " + std::to_string(a.value()) + "|" +
               std::to_string(b.value()) + " latency_x " +
               common::format_double(lx) + " bandwidth_x " +
               common::format_double(bx));
        trace_instant("chaos.degrade",
                      {obs::arg("site_a", a.value()), obs::arg("site_b", b.value()),
                       obs::arg("latency_x", lx), obs::arg("bandwidth_x", bx)});
      });
      if (event.duration > 0.0) {
        engine_.schedule(delay + event.duration, [this, a, b] {
          auto it = std::find_if(
              degrades_.begin(), degrades_.end(),
              [&](const ActiveDegrade& d) { return d.a == a && d.b == b; });
          if (it != degrades_.end()) degrades_.erase(it);
          record("degrade site " + std::to_string(a.value()) + "|" +
                 std::to_string(b.value()) + " lifted");
          trace_instant("chaos.degrade_lifted", {obs::arg("site_a", a.value()),
                                                 obs::arg("site_b", b.value())});
        });
      }
      break;
    }
    case FaultKind::kPartition: {
      const SiteId a{static_cast<std::uint32_t>(event.site_a)};
      const SiteId b{static_cast<std::uint32_t>(event.site_b)};
      engine_.schedule(delay, [this, a, b] {
        partitions_.push_back(ActivePartition{a, b, 0});
        ++faults_injected_;
        record("partition site " + std::to_string(a.value()) + "|" +
               std::to_string(b.value()));
        trace_instant("chaos.partition", {obs::arg("site_a", a.value()),
                                          obs::arg("site_b", b.value())});
      });
      if (event.duration > 0.0) {
        engine_.schedule(delay + event.duration, [this, a, b] {
          auto it = std::find_if(
              partitions_.begin(), partitions_.end(),
              [&](const ActivePartition& p) { return p.a == a && p.b == b; });
          std::uint64_t drops = 0;
          if (it != partitions_.end()) {
            drops = it->drops;
            partitions_.erase(it);
          }
          record("partition site " + std::to_string(a.value()) + "|" +
                 std::to_string(b.value()) + " healed (" +
                 std::to_string(drops) + " drops)");
          trace_instant("chaos.partition_healed",
                        {obs::arg("site_a", a.value()),
                         obs::arg("site_b", b.value()),
                         obs::arg("drops", drops)});
        });
      }
      break;
    }
    case FaultKind::kMessageLoss: {
      engine_.schedule(delay, [this, index] {
        const FaultEvent& e = plan_.events()[index];
        losses_.push_back(ActiveLoss{e.rate, e.type_prefix, e.site_a, 0});
        ++faults_injected_;
        std::string what = "loss rate " + common::format_double(e.rate);
        if (!e.type_prefix.empty()) what += " type \"" + e.type_prefix + "\"";
        if (e.site_a >= 0) what += " site " + std::to_string(e.site_a);
        record(std::move(what));
        trace_instant("chaos.loss", {obs::arg("rate", e.rate),
                                     obs::arg("type", e.type_prefix)});
      });
      if (event.duration > 0.0) {
        engine_.schedule(delay + event.duration, [this, index] {
          const FaultEvent& e = plan_.events()[index];
          auto it = std::find_if(losses_.begin(), losses_.end(),
                                 [&](const ActiveLoss& l) {
                                   return l.rate == e.rate &&
                                          l.type_prefix == e.type_prefix &&
                                          l.site == e.site_a;
                                 });
          std::uint64_t drops = 0;
          if (it != losses_.end()) {
            drops = it->drops;
            losses_.erase(it);
          }
          record("loss rate " + common::format_double(e.rate) + " ended (" +
                 std::to_string(drops) + " drops)");
          trace_instant("chaos.loss_ended",
                        {obs::arg("rate", e.rate), obs::arg("drops", drops)});
        });
      }
      break;
    }
    case FaultKind::kLoadSpike: {
      const double load = event.load;
      engine_.schedule(delay, [this, host, load] {
        topology_.add_cpu_load(host, load);
        ++faults_injected_;
        record("slow " + host_label(topology_, host) + " load +" +
               common::format_double(load));
        trace_instant("chaos.slow",
                      {obs::arg("host", host.value()), obs::arg("load", load)});
      });
      if (event.duration > 0.0) {
        engine_.schedule(delay + event.duration, [this, host, load] {
          topology_.add_cpu_load(host, -load);
          record("slow " + host_label(topology_, host) + " ended");
          trace_instant("chaos.slow_ended", {obs::arg("host", host.value())});
        });
      }
      break;
    }
    case FaultKind::kStaleMonitor: {
      engine_.schedule(delay, [this, index, host] {
        const FaultEvent& e = plan_.events()[index];
        const std::vector<HostId> targets = stale_targets(e, host);
        for (HostId h : targets) ++topology_.host(h).state.monitor_mutes;
        ++faults_injected_;
        std::string what = "stale ";
        what += !e.host.empty()
                    ? host_label(topology_, targets.front())
                    : "site " + std::to_string(e.site_a) + " (" +
                          std::to_string(targets.size()) + " hosts)";
        record(std::move(what));
        trace_instant("chaos.stale",
                      {obs::arg("hosts", std::to_string(targets.size()))});
      });
      if (event.duration > 0.0) {
        engine_.schedule(delay + event.duration, [this, index, host] {
          const FaultEvent& e = plan_.events()[index];
          const std::vector<HostId> targets = stale_targets(e, host);
          for (HostId h : targets) --topology_.host(h).state.monitor_mutes;
          std::string what = "stale ";
          what += !e.host.empty() ? host_label(topology_, targets.front())
                                  : "site " + std::to_string(e.site_a);
          record(std::move(what) + " ended");
          trace_instant("chaos.stale_ended",
                        {obs::arg("hosts", std::to_string(targets.size()))});
        });
      }
      break;
    }
  }
}

bool ChaosInjector::should_drop(const net::Message& msg) {
  if (partitions_.empty() && losses_.empty()) return false;
  const SiteId src_site = topology_.host(msg.src).site;
  const SiteId dst_site = topology_.host(msg.dst).site;

  for (ActivePartition& p : partitions_) {
    if (src_site != dst_site && pair_matches(src_site, dst_site, p.a, p.b)) {
      ++p.drops;
      ++total_dropped_;
      return true;
    }
  }
  for (ActiveLoss& l : losses_) {
    if (!l.type_prefix.empty() &&
        !msg.type.name().starts_with(l.type_prefix)) {
      continue;
    }
    if (l.site >= 0) {
      const auto site = static_cast<std::uint32_t>(l.site);
      if (src_site.value() != site && dst_site.value() != site) continue;
    }
    // The RNG draw happens only for matching messages, so the drop pattern
    // is a pure function of (plan seed, message sequence) — deterministic.
    if (rng_.chance(l.rate)) {
      ++l.drops;
      ++total_dropped_;
      return true;
    }
  }
  return false;
}

net::LinkSpec ChaosInjector::adjust_link(net::HostId src, net::HostId dst,
                                         net::LinkSpec link) {
  if (degrades_.empty() || src == dst) return link;
  const SiteId src_site = topology_.host(src).site;
  const SiteId dst_site = topology_.host(dst).site;
  for (const ActiveDegrade& d : degrades_) {
    if (pair_matches(src_site, dst_site, d.a, d.b)) {
      link.latency *= d.latency_x;
      link.bandwidth_bps *= d.bandwidth_x;
    }
  }
  return link;
}

void ChaosInjector::record(std::string what) {
  if (obs_ != nullptr && obs_->metrics_on()) {
    obs_->metrics().counter("chaos.log_records").add(1);
  }
  log_.push_back(FaultRecord{engine_.now(), std::move(what)});
}

void ChaosInjector::trace_instant(const char* name,
                                  std::vector<obs::TraceArg> args) {
  if (obs_ != nullptr && obs_->trace_on()) {
    obs_->trace().instant("chaos", name, engine_.now(), obs::kControlTrack,
                          std::move(args));
  }
}

std::string ChaosInjector::log_text() const {
  std::string out;
  for (const FaultRecord& r : log_) {
    out += "t=" + common::format_double(r.time, 4) + " " + r.what + "\n";
  }
  return out;
}

}  // namespace vdce::chaos
