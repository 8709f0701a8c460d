#include "runtime/host_agent.hpp"

#include "runtime/protocol.hpp"

namespace vdce::runtime {

HostAgent::HostAgent(RuntimeCore& core, common::HostId host)
    : core_(core),
      host_(host),
      monitor_(core, host, core.topology().group(core.topology().host(host).group).leader),
      data_manager_(core, host),
      app_controller_(core, host, data_manager_) {
  const net::Host& h = core.topology().host(host);
  const net::Group& group = core.topology().group(h.group);
  const net::Site& site = core.topology().site(h.site);
  if (group.leader == host) {
    group_manager_ =
        std::make_unique<GroupManager>(core, group.id, host, site.server);
  }
  if (site.server == host) {
    site_manager_ = std::make_unique<SiteManager>(core, site.id, host);
  }
}

void HostAgent::start() {
  if (started_) return;
  started_ = true;
  core_.fabric().bind(host_, [this](const net::Message& m) { dispatch(m); });
  monitor_.start();
  app_controller_.start();
  if (group_manager_) group_manager_->start();
  if (site_manager_) site_manager_->start();
}

void HostAgent::stop() {
  if (!started_) return;
  started_ = false;
  monitor_.stop();
  app_controller_.stop();
  if (group_manager_) group_manager_->stop();
  if (site_manager_) site_manager_->stop();
  core_.fabric().unbind(host_);
}

void HostAgent::dispatch(const net::Message& message) {
  for (const Extension& extension : extensions_) {
    if (extension(message)) return;
  }
  const net::MsgType type = message.type;

  if (type == msg::kGmEcho || type == msg::kSmEcho) {
    monitor_.handle(message);
    return;
  }
  if (type == msg::kDmSetup || type == msg::kDmSetupAck ||
      type == msg::kDmData || type == msg::kDmInput ||
      type == msg::kDmResend) {
    data_manager_.handle(message);
    return;
  }
  if (type == msg::kGmExec || type == msg::kSmStart ||
      type == msg::kSmSuspend || type == msg::kSmResume) {
    app_controller_.handle(message);
    return;
  }
  if (group_manager_ &&
      (type == msg::kMonReport || type == msg::kGmEchoReply ||
       type == msg::kSmRatGm)) {
    group_manager_->handle(message);
    return;
  }
  if (site_manager_) site_manager_->handle(message);
}

}  // namespace vdce::runtime
