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
    core_.emit({.kind = RuntimeEventKind::kOverload, .track = host_.value(),
                .host = host_.value(), .site = h.site.value(),
                .app = aborted.app.value(), .task = aborted.task.value(),
                .v = h.state.cpu_load});
    (void)core_.fabric().send(net::Message{
        host_, aborted.origin, msg::kAcOverload, wire::kSmall,
        OverloadNotice{aborted.app, aborted.task, host_, h.state.cpu_load}});
  }
}

}  // namespace vdce::runtime
