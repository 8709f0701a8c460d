#include "runtime/app_controller.hpp"

namespace vdce::runtime {

void AppController::start() {
  if (started_) return;
  started_ = true;
  timer_ = core_.engine().every(core_.options().controller_period,
                                [this] { check_load(); },
                                core_.options().controller_period);
}

void AppController::stop() { timer_.cancel(); }

void AppController::handle(const net::Message& message) {
  if (message.type == msg::kGmExec) {
    on_exec(message);
  } else if (message.type == msg::kSmStart) {
    dm_.start_app(message.payload.get<StartSignal>().app);
  } else if (message.type == msg::kSmSuspend) {
    dm_.suspend(message.payload.get<SuspendSignal>().app);
  } else if (message.type == msg::kSmResume) {
    dm_.resume(message.payload.get<SuspendSignal>().app);
  }
}

void AppController::on_exec(const net::Message& message) {
  const auto& request = message.payload.get<ExecRequest>();
  PlanPtr plan = request.plan;
  // Activate the Data Manager; once its channels are acknowledged, report
  // readiness to the origin Site Manager.
  dm_.activate(
      plan,
      [this, plan] {
        (void)core_.fabric().send(net::Message{
            host_, plan->origin, msg::kAcReady, wire::kSmall,
            ReadyNotice{plan->app, host_}});
      },
      request.pin);
}

void AppController::check_load() {
  const net::Host& h = core_.topology().host(host_);
  if (!h.state.up) return;
  if (h.state.cpu_load <= core_.options().overload_threshold) return;

  for (const DataManager::Aborted& aborted : dm_.abort_running()) {
    core_.flight(obs::FlightCode::kOverload, host_.value(),
                 aborted.app.value(), aborted.task.value(), h.state.cpu_load);
    if (core_.metering()) {
      core_.meters().counter("recovery.overload_terminations").add();
    }
    core_.health_event(obs::health::kRecoveryActions,
                       static_cast<std::int64_t>(host_.value()),
                       static_cast<std::int64_t>(h.site.value()));
    if (core_.tracing()) {
      core_.trace_sink().instant(
          "recovery", "recovery.overload", core_.now(), host_.value(),
          {obs::arg("app", aborted.app.value()),
           obs::arg("task", aborted.task.value()),
           obs::arg("load", h.state.cpu_load)},
          obs::Causal{.app = aborted.app.value(),
                      .task = aborted.task.value()});
    }
    (void)core_.fabric().send(net::Message{
        host_, aborted.origin, msg::kAcOverload, wire::kSmall,
        OverloadNotice{aborted.app, aborted.task, host_, h.state.cpu_load}});
  }
}

}  // namespace vdce::runtime
