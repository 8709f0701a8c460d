#include "net/topology.hpp"

#include <algorithm>

namespace vdce::net {

namespace {

/// Slot of the unordered pair {a, b}, a != b, in the WAN link table.
std::size_t wan_slot(SiteId a, SiteId b) {
  const std::size_t lo = std::min(a.value(), b.value());
  const std::size_t hi = std::max(a.value(), b.value());
  return hi * (hi - 1) / 2 + lo;
}

}  // namespace

SiteId Topology::add_site(std::string name, LinkSpec lan) {
  SiteId id(static_cast<common::SiteId::value_type>(sites_.size()));
  sites_.push_back(Site{id, std::move(name), HostId{}, lan, {}, {}});
  wan_links_.resize(wan_links_.size() + id.value());
  return id;
}

HostId Topology::add_host(SiteId site_id, HostSpec spec, int group_index) {
  assert(site_id.value() < sites_.size());
  assert(group_index >= 0);
  Site& s = sites_[site_id.value()];

  HostId id(static_cast<common::HostId::value_type>(hosts_.size()));

  // Create intermediate groups on demand so callers can use sparse indices.
  while (static_cast<int>(s.groups.size()) <= group_index) {
    GroupId gid(static_cast<common::GroupId::value_type>(groups_.size()));
    groups_.push_back(Group{gid, site_id, HostId{}, {}});
    s.groups.push_back(gid);
  }
  Group& g = groups_[s.groups[static_cast<std::size_t>(group_index)].value()];
  if (!g.leader.valid()) g.leader = id;
  g.members.push_back(id);

  Host h{id, site_id, g.id, std::move(spec), HostState{}};
  h.state.available_mb = h.spec.memory_mb;
  hosts_.push_back(std::move(h));

  if (!s.server.valid()) s.server = id;
  s.hosts.push_back(id);
  return id;
}

void Topology::set_wan_link(SiteId a, SiteId b, LinkSpec link) {
  assert(a != b);
  assert(a.value() < sites_.size() && b.value() < sites_.size());
  std::optional<LinkSpec>& slot = wan_links_[wan_slot(a, b)];
  if (!slot) slot = link;
}

const Host& Topology::host(HostId id) const {
  assert(id.value() < hosts_.size());
  return hosts_[id.value()];
}

Host& Topology::host(HostId id) {
  assert(id.value() < hosts_.size());
  return hosts_[id.value()];
}

const Site& Topology::site(SiteId id) const {
  assert(id.value() < sites_.size());
  return sites_[id.value()];
}

const Group& Topology::group(GroupId id) const {
  assert(id.value() < groups_.size());
  return groups_[id.value()];
}

common::Expected<HostId> Topology::find_host(const std::string& name) const {
  for (const Host& h : hosts_) {
    if (h.spec.name == name) return h.id;
  }
  return common::Error{common::ErrorCode::kNotFound, "no host named " + name};
}

common::Expected<SiteId> Topology::find_site(const std::string& name) const {
  for (const Site& s : sites_) {
    if (s.name == name) return s.id;
  }
  return common::Error{common::ErrorCode::kNotFound, "no site named " + name};
}

LinkSpec Topology::wan_link(SiteId a, SiteId b) const {
  if (a == b) return site(a).lan;
  assert(a.value() < sites_.size() && b.value() < sites_.size());
  const std::optional<LinkSpec>& slot = wan_links_[wan_slot(a, b)];
  return slot ? *slot : default_wan_;
}

LinkSpec Topology::link_between(HostId a, HostId b) const {
  if (a == b) return LinkSpec{0.0, 1e18};  // loopback: effectively free
  const Host& ha = host(a);
  const Host& hb = host(b);
  if (ha.site == hb.site) return site(ha.site).lan;
  return wan_link(ha.site, hb.site);
}

common::SimDuration Topology::transfer_time(HostId from, HostId to,
                                            double bytes) const {
  return link_between(from, to).transfer_time(bytes);
}

common::SimDuration Topology::site_transfer_time(SiteId from, SiteId to,
                                                 double bytes) const {
  if (from == to) return site(from).lan.transfer_time(bytes);
  return wan_link(from, to).transfer_time(bytes);
}

std::vector<SiteId> Topology::nearest_sites(SiteId local, std::size_t k) const {
  std::vector<SiteId> remote;
  for (const Site& s : sites_) {
    if (s.id != local) remote.push_back(s.id);
  }
  std::sort(remote.begin(), remote.end(), [&](SiteId a, SiteId b) {
    auto la = wan_link(local, a).latency;
    auto lb = wan_link(local, b).latency;
    if (la != lb) return la < lb;
    return a < b;
  });
  if (remote.size() > k) remote.resize(k);
  return remote;
}

void Topology::set_host_up(HostId id, bool up) { host(id).state.up = up; }

void Topology::set_cpu_load(HostId id, double load) {
  assert(load >= 0.0);
  host(id).state.cpu_load = load;
}

void Topology::add_cpu_load(HostId id, double delta) {
  Host& h = host(id);
  h.state.cpu_load = std::max(0.0, h.state.cpu_load + delta);
}

}  // namespace vdce::net
