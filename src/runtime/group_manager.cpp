#include "runtime/group_manager.hpp"

#include <cmath>

namespace vdce::runtime {

void GroupManager::start() {
  if (started_) return;
  started_ = true;
  echo_timer_ = core_.engine().every(core_.options().echo_period,
                                     [this] { echo_tick(); },
                                     core_.options().echo_period * 0.5);
}

void GroupManager::stop() { echo_timer_.cancel(); }

void GroupManager::handle(const net::Message& message) {
  if (message.type == msg::kMonReport) {
    on_mon_report(message);
  } else if (message.type == msg::kGmEchoReply) {
    on_echo_reply(message);
  } else if (message.type == msg::kSmRatGm) {
    on_rat(message);
  }
}

GroupManager::MemberState* GroupManager::member(common::HostId host) {
  const std::vector<common::HostId>& ids =
      core_.topology().group(group_).members;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != host) continue;
    if (members_.size() < ids.size()) members_.resize(ids.size());
    return &members_[i];
  }
  return nullptr;
}

void GroupManager::on_mon_report(const net::Message& message) {
  const auto& report = message.payload.get<MonReport>();
  ++reports_received_;
  if (core_.metering()) core_.meters().counter("monitor.reports_received").add();
  MemberState* state = member(report.host);
  if (state == nullptr) return;  // not ours to aggregate

  // Any traffic from a host is proof of life: without this, an echo round
  // that straddles a host's recovery would declare it down again right
  // after its first post-recovery workload report.
  state->alive_round = echo_seq_;
  const bool recovered = state->reported_down;
  state->reported_down = false;

  // Significant-change filter: forward only if the load moved by more than
  // the threshold since the last *forwarded* value.  First reports and
  // recovery reports always pass (the Site Manager must re-mark the host
  // up even if its load happens to match the last forwarded value).
  const bool significant =
      recovered || !state->forwarded_any ||
      std::fabs(report.sample.cpu_load - state->last_forwarded_load) >=
          core_.options().significant_change;
  if (!significant) return;

  state->forwarded_any = true;
  state->last_forwarded_load = report.sample.cpu_load;
  ++reports_forwarded_;
  if (core_.metering()) {
    core_.meters().counter("monitor.reports_forwarded").add();
  }
  (void)core_.fabric().send(net::Message{leader_, site_server_, msg::kGmReport,
                                         wire::gm_report(), GmReport{report}});
}

void GroupManager::echo_tick() {
  const net::Group& group = core_.topology().group(group_);

  // Close the previous round first: anyone silent is presumed failed.
  if (members_.size() < group.members.size()) {
    members_.resize(group.members.size());
  }
  if (echo_outstanding_) {
    for (std::size_t i = 0; i < group.members.size(); ++i) {
      const common::HostId member = group.members[i];
      MemberState& state = members_[i];
      if (member == leader_) continue;  // the leader vouches for itself
      if (state.alive_round == echo_seq_ || state.reported_down) continue;
      state.reported_down = true;
      core_.emit({.kind = RuntimeEventKind::kFailureDetected,
                  .track = leader_.value(), .host = member.value(),
                  .site = core_.topology().host(member).site.value(),
                  .n = echo_seq_});
      (void)core_.fabric().send(net::Message{leader_, site_server_,
                                             msg::kGmHostDown, wire::kSmall,
                                             HostDownNotice{member}});
    }
  }

  // Open the next round (every member's alive_round is now stale).
  ++echo_seq_;
  echo_outstanding_ = true;
  core_.emit({.kind = RuntimeEventKind::kEchoRound, .track = leader_.value(),
              .n = echo_seq_, .m = group_.value()});
  for (common::HostId member : group.members) {
    if (member == leader_) continue;
    (void)core_.fabric().send(net::Message{leader_, member, msg::kGmEcho,
                                           wire::kEcho,
                                           EchoPacket{leader_, echo_seq_}});
  }
}

void GroupManager::on_echo_reply(const net::Message& message) {
  const auto& echo = message.payload.get<EchoPacket>();
  if (echo.seq != echo_seq_) return;  // stale reply from an earlier round
  if (MemberState* state = member(message.src)) state->alive_round = echo_seq_;
}

void GroupManager::on_rat(const net::Message& message) {
  const auto& rat = message.payload.get<RatMulticast>();
  const net::Group& group = core_.topology().group(group_);

  // Forward an execution request to the Application Controller of each
  // member that appears in the allocation table.
  for (common::HostId member : group.members) {
    bool involved = false;
    for (const sched::Assignment& a : rat.plan->rat.assignments) {
      for (common::HostId h : a.hosts) {
        if (h == member) {
          involved = true;
          break;
        }
      }
      if (involved) break;
    }
    if (!involved) continue;
    (void)core_.fabric().send(net::Message{leader_, member, msg::kGmExec,
                                           wire::kSmall,
                                           ExecRequest{rat.plan, member}});
  }
}

}  // namespace vdce::runtime
