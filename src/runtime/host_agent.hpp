// HostAgent: the per-host message dispatcher ("node daemon").
//
// The fabric delivers every message for a host to one handler; the agent
// demultiplexes by message type to the daemons resident on that machine.
// Every host runs a Monitor daemon, a Data Manager, and an Application
// Controller; group-leader machines additionally run a Group Manager; the
// site's VDCE Server machine additionally runs the Site Manager (§4.1,
// Fig. 4).
#pragma once

#include <memory>

#include "common/ids.hpp"
#include "runtime/app_controller.hpp"
#include "runtime/core.hpp"
#include "runtime/data_manager.hpp"
#include "runtime/group_manager.hpp"
#include "runtime/monitor.hpp"
#include "runtime/site_manager.hpp"

namespace vdce::runtime {

class HostAgent {
 public:
  /// Build the agent for `host`.  Roles are derived from the topology: the
  /// group leader gets a GroupManager, the site server a SiteManager.
  HostAgent(RuntimeCore& core, common::HostId host);

  HostAgent(const HostAgent&) = delete;
  HostAgent& operator=(const HostAgent&) = delete;

  /// Bind the fabric handler and start all resident daemons.
  void start();
  void stop();

  /// Extension services (e.g. the DSM runtime) can claim message types the
  /// core daemons do not know.  Extensions are consulted first; returning
  /// true consumes the message.
  using Extension = std::function<bool(const net::Message&)>;
  void add_extension(Extension extension) {
    extensions_.push_back(std::move(extension));
  }

  [[nodiscard]] common::HostId host() const noexcept { return host_; }
  [[nodiscard]] SiteManager* site_manager() noexcept {
    return site_manager_.get();
  }

 private:
  void dispatch(const net::Message& message);

  RuntimeCore& core_;
  common::HostId host_;
  MonitorDaemon monitor_;
  DataManager data_manager_;
  AppController app_controller_;
  std::unique_ptr<GroupManager> group_manager_;
  std::unique_ptr<SiteManager> site_manager_;
  std::vector<Extension> extensions_;
  bool started_ = false;
};

}  // namespace vdce::runtime
