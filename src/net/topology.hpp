// Simulated wide-area topology: sites, hosts, and links.
//
// This substitutes for the paper's campus/wide-area testbed (§1: "VDCE is
// composed of distributed sites, each of which has one or more VDCE
// Servers").  A Topology is a set of *sites*; each site has a designated
// VDCE-server host, one or more *groups* of machines (each with a group
// leader, per §4.1), an intra-site LAN link model, and pairwise WAN links to
// other sites.  Hosts carry the resource attributes the paper's
// resource-performance database stores: name, IP, architecture, OS, memory,
// and a base processor speed used by the prediction model.
//
// The topology also carries dynamic state the runtime mutates: per-host
// up/down and current CPU load / available memory (the monitor daemons
// sample these; the ground truth lives here so experiments can inject load
// spikes and failures).
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace vdce::net {

using common::GroupId;
using common::HostId;
using common::SiteId;

/// Static description of a machine (the schema of the paper's
/// resource-performance database, §3).
struct HostSpec {
  std::string name;          ///< e.g. "serval.eal.syr.edu"
  std::string ip;            ///< dotted quad, synthetic
  std::string arch;          ///< e.g. "sparc", "x86_64"
  std::string os;            ///< e.g. "sunos", "linux"
  std::string machine_type;  ///< user-facing class, e.g. "SUN solaris"
  double speed_mflops = 100.0;  ///< base processor speed
  double memory_mb = 256.0;     ///< total physical memory
};

/// Latency/bandwidth pair describing a link (LAN or WAN).
struct LinkSpec {
  common::SimDuration latency = 0.0;  ///< one-way, seconds
  double bandwidth_bps = 1e9;         ///< bytes per second

  /// Time to move `bytes` across this link.
  [[nodiscard]] common::SimDuration transfer_time(double bytes) const {
    assert(bandwidth_bps > 0.0);
    return latency + bytes / bandwidth_bps;
  }
};

/// Dynamic, runtime-mutable state of a host.  `cpu_load` is the ground
/// truth the monitor daemon samples: 0 = idle, 1 = fully busy with other
/// work; >1 means oversubscribed.
struct HostState {
  bool up = true;
  double cpu_load = 0.0;
  double available_mb = 0.0;  ///< free memory; initialized to spec memory
  int running_tasks = 0;      ///< VDCE tasks currently placed here
  /// Open stale-monitor windows (chaos plane): while > 0 the host's monitor
  /// daemon skips its samples.  A count, so overlapping windows nest.
  int monitor_mutes = 0;
};

struct Host {
  HostId id;
  SiteId site;
  GroupId group;
  HostSpec spec;
  HostState state;
};

struct Group {
  GroupId id;
  SiteId site;
  HostId leader;               ///< the group-leader machine (runs GroupManager)
  std::vector<HostId> members;  ///< includes the leader
};

struct Site {
  SiteId id;
  std::string name;
  HostId server;  ///< the VDCE Server machine (runs SiteManager); first host added
  LinkSpec lan;   ///< intra-site link model
  std::vector<HostId> hosts;
  std::vector<GroupId> groups;
};

/// The network: owns all sites/hosts/groups and answers routing queries.
class Topology {
 public:
  /// Create a site with the given intra-site LAN characteristics.  The first
  /// host subsequently added becomes the VDCE Server machine.
  SiteId add_site(std::string name, LinkSpec lan);

  /// Add a host to `site`, placing it in group `group_index` (groups are
  /// created on demand; the first host added to a group is its leader).
  HostId add_host(SiteId site, HostSpec spec, int group_index = 0);

  /// Declare the WAN link between two distinct existing sites (symmetric;
  /// the first declaration of a pair wins).  Sites without an explicit link
  /// use `default_wan()`.
  void set_wan_link(SiteId a, SiteId b, LinkSpec link);

  /// Applies at lookup time, so it reaches every undeclared pair whenever
  /// it is called.
  void set_default_wan(LinkSpec link) { default_wan_ = link; }
  [[nodiscard]] LinkSpec default_wan() const { return default_wan_; }

  // --- lookups ---------------------------------------------------------
  [[nodiscard]] const Host& host(HostId id) const;
  [[nodiscard]] Host& host(HostId id);
  [[nodiscard]] const Site& site(SiteId id) const;
  [[nodiscard]] const Group& group(GroupId id) const;
  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }
  [[nodiscard]] std::size_t site_count() const noexcept { return sites_.size(); }
  [[nodiscard]] const std::vector<Site>& sites() const noexcept { return sites_; }
  [[nodiscard]] const std::vector<Host>& hosts() const noexcept { return hosts_; }

  /// Find a host by its DNS name (used by task-constraint lookups and the
  /// editor's "preferred machine" property).  Linear scan; host counts are
  /// small (10^2-10^3).
  [[nodiscard]] common::Expected<HostId> find_host(const std::string& name) const;
  [[nodiscard]] common::Expected<SiteId> find_site(const std::string& name) const;

  // --- routing / timing -------------------------------------------------
  /// The link model governing traffic between two hosts: a zero link for
  /// same-host, the site LAN for intra-site, the WAN link for inter-site.
  [[nodiscard]] LinkSpec link_between(HostId a, HostId b) const;
  [[nodiscard]] LinkSpec wan_link(SiteId a, SiteId b) const;

  /// Time to move `bytes` from `from` to `to`.
  [[nodiscard]] common::SimDuration transfer_time(HostId from, HostId to,
                                                  double bytes) const;

  /// Inter-site transfer time used by the site scheduler (Fig. 2's
  /// `transfer_time(S_parent, S_j) * file_size` term).  Measured server to
  /// server.
  [[nodiscard]] common::SimDuration site_transfer_time(SiteId from, SiteId to,
                                                       double bytes) const;

  /// The k nearest remote sites of `local`, ordered by WAN latency then id —
  /// the neighbour set the Fig. 2 site scheduler multicasts the AFG to.
  [[nodiscard]] std::vector<SiteId> nearest_sites(SiteId local,
                                                  std::size_t k) const;

  // --- dynamic state ----------------------------------------------------
  void set_host_up(HostId id, bool up);
  void set_cpu_load(HostId id, double load);
  void add_cpu_load(HostId id, double delta);
  [[nodiscard]] bool host_up(HostId id) const { return host(id).state.up; }

 private:
  std::vector<Site> sites_;
  std::vector<Host> hosts_;
  std::vector<Group> groups_;
  /// Declared WAN links by unordered site pair: {lo, hi} (lo < hi) sits at
  /// hi*(hi-1)/2 + lo, so add_site appends one slot per existing site.
  std::vector<std::optional<LinkSpec>> wan_links_;
  LinkSpec default_wan_{common::milliseconds(30), 1e7};
};

}  // namespace vdce::net
