// Site repository (§3): "Each site has a site repository for storing
// user-accounts information, task and resource parameters that are used by
// the scheduler."  One per site; owned by that site's VDCE server and
// accessed through its Site Manager (which "bridges the VDCE modules to the
// site databases", §1).  The four databases are in-memory simulation state
// that lives for one run.
#pragma once

#include "common/ids.hpp"
#include "db/resource_perf.hpp"
#include "db/task_constraints.hpp"
#include "db/task_perf.hpp"
#include "db/user_accounts.hpp"
#include "net/topology.hpp"

namespace vdce::db {

class SiteRepository {
 public:
  explicit SiteRepository(common::SiteId site) : site_(site) {}

  [[nodiscard]] common::SiteId site() const noexcept { return site_; }

  UserAccountsDb& users() noexcept { return users_; }
  const UserAccountsDb& users() const noexcept { return users_; }

  ResourcePerformanceDb& resources() noexcept { return resources_; }
  const ResourcePerformanceDb& resources() const noexcept { return resources_; }

  TaskPerformanceDb& tasks() noexcept { return tasks_; }
  const TaskPerformanceDb& tasks() const noexcept { return tasks_; }

  TaskConstraintsDb& constraints() noexcept { return constraints_; }
  const TaskConstraintsDb& constraints() const noexcept { return constraints_; }

  /// Populate the resource-performance database from the site's hosts in
  /// the topology (bring-up registration; live values arrive later through
  /// the monitoring pipeline).
  void register_site_hosts(const net::Topology& topology);

 private:
  common::SiteId site_;
  UserAccountsDb users_;
  ResourcePerformanceDb resources_;
  TaskPerformanceDb tasks_;
  TaskConstraintsDb constraints_;
};

}  // namespace vdce::db
