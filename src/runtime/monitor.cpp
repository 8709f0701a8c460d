#include "runtime/monitor.hpp"

namespace vdce::runtime {

void MonitorDaemon::start() {
  if (started_) return;
  started_ = true;
  noise_ = common::Rng(core_.options().seed ^
                       (0x9e3779b97f4a7c15ULL * (host_.value() + 1)));
  if (core_.health_on()) {
    const net::Host& h = core_.topology().host(host_);
    obs::health::SeriesKey key;
    key.host = static_cast<std::int64_t>(host_.value());
    key.site = static_cast<std::int64_t>(h.site.value());
    key.metric = obs::health::kHostLoad;
    load_series_ = core_.health_plane().series(key, core_.now());
    key.metric = obs::health::kHostMem;
    mem_series_ = core_.health_plane().series(key, core_.now());
  }
  // Phase-stagger the first sample across the period.
  double phase = noise_.uniform(0.0, core_.options().monitor_period);
  timer_ = core_.engine().every(core_.options().monitor_period,
                                [this] { sample_and_report(); }, phase);
}

void MonitorDaemon::stop() { timer_.cancel(); }

void MonitorDaemon::sample_and_report() {
  const net::Host& h = core_.topology().host(host_);
  if (!h.state.up) return;  // a dead host measures nothing
  // Stale-monitor fault window: the daemon is alive (echoes still answer)
  // but its samples go missing, so repository data for this host ages.
  if (h.state.monitor_mutes > 0) {
    if (core_.metering()) core_.meters().counter("monitor.samples_muted").add();
    return;
  }

  if (core_.metering()) core_.meters().counter("monitor.samples").add();

  MonReport report;
  report.host = host_;
  report.sample.time = core_.now();
  // Measurement noise models the coarse sampling of 1997 'uptime'-style
  // load probes.
  report.sample.cpu_load =
      noise_.normal(h.state.cpu_load, core_.options().measurement_noise, 0.0);
  report.sample.available_mb =
      noise_.normal(h.state.available_mb,
                    core_.options().measurement_noise * h.spec.memory_mb, 0.0);

  // Health-plane feed: the *measured* values, after the mute check, so a
  // crashed host and a stale-monitor window both starve the series and the
  // monitor-stale rule sees exactly what a real alerting pipeline would.
  if (load_series_ != nullptr) {
    obs::health::HealthPlane& health = core_.health_plane();
    health.observe(load_series_, core_.now(), report.sample.cpu_load);
    health.observe(mem_series_, core_.now(), report.sample.available_mb);
  }

  (void)core_.fabric().send(net::Message{
      host_, group_leader_, msg::kMonReport, wire::mon_report(), report});
}

void MonitorDaemon::handle(const net::Message& message) {
  // Echo requests from the Group Manager and the Site Manager; each gets
  // the matching reply type.
  net::MsgType reply;
  if (message.type == msg::kGmEcho) {
    reply = msg::kGmEchoReply;
  } else if (message.type == msg::kSmEcho) {
    reply = msg::kSmEchoReply;
  } else {
    return;
  }
  const auto& echo = message.payload.get<EchoPacket>();
  (void)core_.fabric().send(net::Message{host_, echo.leader, reply,
                                         wire::kEcho,
                                         EchoPacket{host_, echo.seq}});
}

}  // namespace vdce::runtime
