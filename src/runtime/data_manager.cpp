#include "runtime/data_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "common/strings.hpp"

namespace vdce::runtime {

namespace {

/// Does `assignment` place the task's primary execution on `host`?
bool primary_here(const sched::Assignment& a, common::HostId host) {
  return a.primary_host() == host;
}

/// Execution proceeds in quanta: each boundary re-reads live host load, so
/// background spikes slow a running task (and departures speed it up).
constexpr common::SimDuration kExecQuantum = 1.0;

}  // namespace

void DataManager::activate(const PlanPtr& plan,
                           std::function<void()> on_channels_ready,
                           afg::TaskId pin) {
  AppState& state = apps_[plan->app.value()];
  const bool first_activation = (state.plan == nullptr);
  const bool was_started = state.started;
  state.plan = plan;  // newer plan wins (reschedules ship updated tables)
  if (pin.valid()) state.unkillable.insert(pin.value());
  merge_local_tasks(state);

  if (first_activation) {
    state.on_ready = std::move(on_channels_ready);
    setup_channels(state);
    if (state.pending_setups.empty() && !state.ready_fired) fire_ready(state);
  } else if (was_started) {
    // Reschedule merge on an already-running app: newly ready tasks may
    // start immediately.
    maybe_start(plan->app);
  } else {
    // Re-activation before start: the coordinator re-dispatched gm.exec
    // (its copy of our readiness report may have been lost).  Don't redo
    // the handshake, but honour the new callback — if channels are already
    // up, re-announce readiness immediately (the coordinator's ready set
    // dedupes).
    if (on_channels_ready) state.on_ready = std::move(on_channels_ready);
    if (state.ready_fired && state.on_ready) state.on_ready();
  }
}

void DataManager::fire_ready(AppState& state) {
  state.ready_fired = true;
  if (state.on_ready) state.on_ready();
}

void DataManager::merge_local_tasks(AppState& state) {
  const ExecutionPlan& plan = *state.plan;
  for (const sched::Assignment& a : plan.rat.assignments) {
    if (!primary_here(a, host_)) continue;
    if (state.tasks.contains(a.task.value())) continue;
    const afg::TaskNode& node = plan.graph->task(a.task);

    LocalTask task;
    task.id = a.task;
    task.port_filled.assign(static_cast<std::size_t>(node.in_ports()), false);
    task.inputs.assign(static_cast<std::size_t>(node.in_ports()),
                       tasklib::Value{});
    // Expected inputs: one per dataflow edge plus one per staged file input.
    task.pending = static_cast<int>(plan.graph->in_degree(a.task));
    for (const afg::FileSpec& f : node.props.inputs) {
      if (!f.dataflow && !f.path.empty()) ++task.pending;
    }
    const bool ready_now = task.pending == 0;
    state.tasks.emplace(a.task.value(), std::move(task));
    if (ready_now) {
      state.tasks[a.task.value()].queued = true;
      state.queue.push_back(a.task.value());
    }
  }
}

void DataManager::setup_channels(AppState& state) {
  const ExecutionPlan& plan = *state.plan;
  // One proxy/channel per distinct remote peer host that any local task
  // sends to (§4.2: proxy activation + ack).
  std::set<common::HostId> peers;
  for (const auto& [task_value, task] : state.tasks) {
    for (std::uint32_t idx : plan.graph->out_edge_ids(task.id)) {
      const afg::Edge& e = plan.graph->edge(idx);
      const sched::Assignment* a = plan.find_assignment(e.to);
      if (a == nullptr) continue;  // consumer unassigned: nothing to set up
      common::HostId dst = a->primary_host();
      if (dst != host_) peers.insert(dst);
    }
  }
  common::ChannelId::value_type channel_seq = 0;
  for (common::HostId peer : peers) {
    state.pending_setups[peer] =
        AppState::PendingSetup{common::ChannelId(channel_seq++), 0};
  }
  for (common::HostId peer : peers) send_setup(plan.app, peer);
}

void DataManager::send_setup(common::AppId app, common::HostId peer) {
  auto it = apps_.find(app.value());
  if (it == apps_.end()) return;
  AppState& state = it->second;
  auto pending = state.pending_setups.find(peer);
  if (pending == state.pending_setups.end()) return;  // acked meanwhile

  (void)core_.fabric().send(net::Message{
      host_, peer, msg::kDmSetup, wire::kSmall,
      ChannelSetup{app, host_, pending->second.channel}});

  // Retry with exponential backoff (kChannelRetryTimeout, data_manager.hpp).
  const common::SimDuration wait =
      kChannelRetryTimeout * std::pow(kChannelBackoff, pending->second.resends);
  core_.engine().schedule(wait, [this, app, peer] {
    auto app_it = apps_.find(app.value());
    if (app_it == apps_.end()) return;
    AppState& st = app_it->second;
    auto p = st.pending_setups.find(peer);
    if (p == st.pending_setups.end()) return;  // acked: nothing to do
    if (!core_.topology().host_up(host_)) return;
    if (p->second.resends >= kChannelMaxRetries) {
      // Abandon the peer: report readiness anyway so the application can
      // proceed; if the peer matters, task-level recovery takes over later.
      st.pending_setups.erase(p);
      core_.emit({.kind = RuntimeEventKind::kChannelAbandoned,
                  .track = host_.value(), .host = host_.value(),
                  .site = core_.topology().host(host_).site.value(),
                  .app = app.value(), .m = peer.value()});
      if (st.pending_setups.empty() && !st.ready_fired) fire_ready(st);
      return;
    }
    ++p->second.resends;
    core_.emit({.kind = RuntimeEventKind::kChannelRetry,
                .track = host_.value(), .host = host_.value(),
                .site = core_.topology().host(host_).site.value(),
                .app = app.value(),
                .n = static_cast<std::uint64_t>(p->second.resends),
                .m = peer.value()});
    send_setup(app, peer);
  });
}

void DataManager::start_app(common::AppId app) {
  auto it = apps_.find(app.value());
  if (it == apps_.end()) return;
  AppState& state = it->second;
  if (state.started) {
    // A repeated sm.start is the coordinator's stall recovery probing us:
    // re-send every completion notice it may have missed (at-least-once;
    // the coordinator dedupes on task id).
    for (const TaskDonePtr& done : state.done_log) {
      (void)core_.fabric().send(net::Message{host_, state.plan->origin,
                                             msg::kAcTaskDone, wire::kSmall,
                                             done});
    }
  }
  state.started = true;
  maybe_start(app);
}

void DataManager::suspend(common::AppId app) {
  auto it = apps_.find(app.value());
  if (it != apps_.end()) it->second.suspended = true;
}

void DataManager::resume(common::AppId app) {
  auto it = apps_.find(app.value());
  if (it == apps_.end()) return;
  it->second.suspended = false;
  maybe_start(app);
}

std::vector<DataManager::Aborted> DataManager::abort_running() {
  std::vector<Aborted> aborted;
  for (auto& [app_value, state] : apps_) {
    if (!state.busy) continue;
    if (state.unkillable.contains(state.running_task)) continue;
    auto task_it = state.tasks.find(state.running_task);
    assert(task_it != state.tasks.end());
    LocalTask& task = task_it->second;

    state.completion.cancel();
    state.busy = false;
    task.running = false;
    const sched::Assignment& a = state.plan->assignment(task.id);
    for (common::HostId h : a.hosts) {
      core_.topology().add_cpu_load(h, -1.0);
      --core_.topology().host(h).state.running_tasks;
    }

    aborted.push_back(Aborted{state.plan->app, task.id, state.plan->origin});
    // The task leaves this host; the coordinator will re-place it.
    state.tasks.erase(task_it);
  }
  // The machine is free again: let any queued work of the affected
  // applications proceed (they would otherwise wait forever).
  for (const Aborted& a : aborted) maybe_start(a.app);
  return aborted;
}

void DataManager::remove_task(common::AppId app, afg::TaskId task) {
  auto it = apps_.find(app.value());
  if (it == apps_.end()) return;
  AppState& state = it->second;
  auto t = state.tasks.find(task.value());
  if (t == state.tasks.end()) return;
  if (t->second.running) {
    state.completion.cancel();
    state.busy = false;
    const sched::Assignment& a = state.plan->assignment(task);
    for (common::HostId h : a.hosts) {
      core_.topology().add_cpu_load(h, -1.0);
      --core_.topology().host(h).state.running_tasks;
    }
  }
  if (t->second.queued) {
    state.queue.erase(std::remove(state.queue.begin(), state.queue.end(),
                                  task.value()),
                      state.queue.end());
  }
  state.tasks.erase(t);
  maybe_start(app);  // the machine may have been freed for queued work
}

void DataManager::maybe_start(common::AppId app) {
  auto it = apps_.find(app.value());
  if (it == apps_.end()) return;
  AppState& state = it->second;
  if (!state.started || state.suspended || state.busy || state.queue.empty()) {
    return;
  }
  const std::uint32_t task_value = state.queue.front();
  state.queue.pop_front();
  auto task_it = state.tasks.find(task_value);
  if (task_it == state.tasks.end()) {
    maybe_start(app);  // was removed while queued
    return;
  }
  LocalTask& task = task_it->second;
  task.queued = false;
  task.running = true;
  state.busy = true;
  state.running_task = task_value;
  state.run_started = core_.now();
  core_.flight(obs::FlightCode::kTaskStart, host_.value(),
               app.value(), task_value);

  const ExecutionPlan& plan = *state.plan;
  const sched::Assignment& a = plan.assignment(task.id);
  // Draw this run's noise once; progress rate is re-read each quantum so
  // load changes mid-run stretch or shrink the remaining time.
  const double cv = core_.options().exec_noise_cv;
  task.noise_factor = cv > 0.0 ? core_.rng().normal(1.0, cv, 0.05) : 1.0;
  task.remaining_mflop =
      std::max(plan.perf[task_value].computation_mflop, 1e-3) *
      task.noise_factor;
  for (common::HostId h : a.hosts) {
    core_.topology().add_cpu_load(h, +1.0);
    ++core_.topology().host(h).state.running_tasks;
  }

  run_quantum(app, task_value);
}

void DataManager::run_quantum(common::AppId app, std::uint32_t task_value) {
  AppState& state = apps_.at(app.value());
  LocalTask& task = state.tasks.at(task_value);
  const ExecutionPlan& plan = *state.plan;
  const sched::Assignment& a = plan.assignment(task.id);

  const double rate = core_.ground_truth().rate_mflops(
      plan.perf[task_value], a.hosts, /*exclude_own_share=*/true);
  const common::SimDuration dt =
      std::min(task.remaining_mflop / rate, kExecQuantum);
  state.completion =
      core_.engine().schedule(dt, [this, app, task_value, rate, dt] {
        // A dead host computes nothing; its events are inert.
        if (!core_.topology().host_up(host_)) return;
        AppState& st = apps_.at(app.value());
        LocalTask& t = st.tasks.at(task_value);
        t.remaining_mflop -= rate * dt;
        if (t.remaining_mflop <= 1e-9) {
          finish_task(app, task_value);
        } else {
          run_quantum(app, task_value);
        }
      });
}

void DataManager::finish_task(common::AppId app, std::uint32_t task_value) {
  // A dead host computes nothing; its events are inert.
  if (!core_.topology().host_up(host_)) return;

  auto it = apps_.find(app.value());
  assert(it != apps_.end());
  AppState& state = it->second;
  auto task_it = state.tasks.find(task_value);
  assert(task_it != state.tasks.end());
  LocalTask& task = task_it->second;

  const ExecutionPlan& plan = *state.plan;
  const sched::Assignment& a = plan.assignment(task.id);
  for (common::HostId h : a.hosts) {
    core_.topology().add_cpu_load(h, -1.0);
    --core_.topology().host(h).state.running_tasks;
  }
  state.busy = false;
  task.running = false;
  task.done = true;
  const common::SimDuration elapsed = core_.now() - state.run_started;

  const afg::TaskNode& node = plan.graph->task(task.id);
  if (core_.metering()) {
    core_.meters().counter("exec.tasks_completed").add();
    core_.meters().histogram("exec.task_seconds").add(elapsed);
  }
  core_.flight(obs::FlightCode::kTaskDone, host_.value(), plan.app.value(),
               task_value, elapsed);
  if (core_.tracing()) {
    // Causal identity: which task this span is, and which AFG parents feed
    // it — the task->task edges of the causal DAG (obs/causal.hpp).
    obs::Causal causal{.app = plan.app.value(), .task = task_value};
    for (afg::TaskId parent : plan.graph->parents(task.id)) {
      causal.deps.push_back(parent.value());
    }
    core_.trace_sink().span(
        "exec", "exec.task", state.run_started, core_.now(), host_.value(),
        {obs::arg("task", node.instance_name),
         obs::arg("app", plan.app.value()),
         obs::arg("host", host_.value())},
        std::move(causal));
  }

  // Run the real kernel, if the application carries one.
  std::vector<tasklib::Value> outputs(
      static_cast<std::size_t>(node.out_ports()));
  const tasklib::Kernel& kernel = plan.kernels[task_value];
  if (kernel) {
    auto result = kernel(task.inputs);
    if (!result) {
      send_task_done(state, task.id, elapsed, /*failed=*/true,
                     result.error().to_string(), {});
      maybe_start(app);
      return;
    }
    for (std::size_t p = 0; p < result->size() && p < outputs.size(); ++p) {
      outputs[p] = (*result)[p];
    }
  }
  state.outputs[task_value] = outputs;

  // Ship each out-edge to its consumer's current host (honouring redirects).
  for (std::uint32_t idx : plan.graph->out_edge_ids(task.id)) {
    const afg::Edge& e = plan.graph->edge(idx);
    send_edge(state, e,
              outputs[static_cast<std::size_t>(e.from_port)]);
  }

  // Output *files* travel back to the user's file space at the origin (the
  // I/O service stores them; Fig. 1's vector_X.dat).
  for (int p = 0; p < node.out_ports(); ++p) {
    const afg::FileSpec& f = node.props.outputs[static_cast<std::size_t>(p)];
    if (f.path.empty()) continue;
    (void)core_.fabric().send(net::Message{
        host_, plan.origin, msg::kDmOutput, std::max(f.size_bytes, 64.0),
        std::make_shared<const OutputFile>(
            OutputFile{plan.app, task.id, f.path, f.size_bytes,
                       outputs[static_cast<std::size_t>(p)]})});
  }

  // Exit tasks return their port-0 value with the completion notice.
  tasklib::Value exit_output;
  if (plan.graph->out_degree(task.id) == 0 && !outputs.empty()) {
    exit_output = outputs.front();
  }
  send_task_done(state, task.id, elapsed, false, "", std::move(exit_output));
  maybe_start(app);
}

void DataManager::send_edge(AppState& state, const afg::Edge& edge,
                            const tasklib::Value& value) {
  const ExecutionPlan& plan = *state.plan;
  EdgeKey key{edge.from.value(), edge.from_port, edge.to.value()};
  common::HostId dst;
  if (auto r = state.redirects.find(key); r != state.redirects.end()) {
    dst = r->second;
  } else {
    const sched::Assignment* a = plan.find_assignment(edge.to);
    if (a == nullptr) return;  // consumer unassigned: drop, resend heals later
    dst = a->primary_host();
  }
  double bytes = std::max(plan.graph->edge_bytes(edge), 64.0);
  (void)core_.fabric().send(net::Message{
      host_, dst, msg::kDmData, bytes,
      DataDelivery{plan.app, edge.to, edge.to_port, value},
      // Causal tag: this transfer feeds `edge.to`, produced by `edge.from`
      // (the transfer->consumer edge of the causal DAG).
      net::MessageCause{plan.app.value(), edge.to.value(),
                        edge.from.value()}});
}

void DataManager::send_task_done(AppState& state, afg::TaskId task,
                                 common::SimDuration elapsed, bool failed,
                                 const std::string& error,
                                 tasklib::Value exit_output) {
  auto done = std::make_shared<TaskDone>();
  done->app = state.plan->app;
  done->task = task;
  done->host = host_;
  done->started = core_.now() - elapsed;
  done->finished = core_.now();
  done->elapsed = elapsed;
  done->failed = failed;
  done->error = error;
  done->exit_output = std::move(exit_output);
  // Keep the notice for at-least-once re-delivery on repeated sm.start.
  state.done_log.push_back(done);
  (void)core_.fabric().send(net::Message{host_, state.plan->origin,
                                         msg::kAcTaskDone, wire::kSmall,
                                         TaskDonePtr(std::move(done))});
}

void DataManager::deliver(AppState& state, afg::TaskId task, int port,
                          const tasklib::Value& value, common::AppId app) {
  auto task_it = state.tasks.find(task.value());
  if (task_it == state.tasks.end()) return;  // task moved away: stale delivery
  LocalTask& t = task_it->second;
  auto p = static_cast<std::size_t>(port);
  if (p >= t.port_filled.size() || t.port_filled[p]) return;  // duplicate
  t.port_filled[p] = true;
  t.inputs[p] = value;
  if (--t.pending == 0 && !t.done && !t.running && !t.queued) {
    t.queued = true;
    state.queue.push_back(task.value());
    maybe_start(app);
  }
}

void DataManager::handle(const net::Message& message) {
  if (message.type == msg::kDmSetup) {
    const auto& setup = message.payload.get<ChannelSetup>();
    (void)core_.fabric().send(net::Message{
        host_, setup.from, msg::kDmSetupAck, wire::kSmall,
        ChannelSetupAck{setup.app, host_, setup.channel}});
    return;
  }
  if (message.type == msg::kDmSetupAck) {
    const auto& ack = message.payload.get<ChannelSetupAck>();
    auto it = apps_.find(ack.app.value());
    if (it == apps_.end()) return;
    AppState& state = it->second;
    state.pending_setups.erase(ack.from);  // duplicate acks are no-ops
    if (state.pending_setups.empty() && !state.ready_fired) fire_ready(state);
    return;
  }
  if (message.type == msg::kDmData || message.type == msg::kDmInput) {
    const auto& delivery = message.payload.get<DataDelivery>();
    auto it = apps_.find(delivery.app.value());
    if (it == apps_.end()) return;  // app unknown here (host never involved)
    deliver(it->second, delivery.to_task, delivery.to_port, delivery.value,
            delivery.app);
    return;
  }
  if (message.type == msg::kDmResend) {
    const auto& req = message.payload.get<ResendRequest>();
    auto it = apps_.find(req.app.value());
    if (it == apps_.end()) return;
    AppState& state = it->second;
    state.redirects[EdgeKey{req.from_task.value(), req.from_port,
                            req.to_task.value()}] = req.new_host;
    auto out = state.outputs.find(req.from_task.value());
    if (out != state.outputs.end()) {
      // Producer already finished: re-deliver immediately.
      const ExecutionPlan& plan = *state.plan;
      double bytes = 64.0;
      for (std::uint32_t idx : plan.graph->out_edge_ids(req.from_task)) {
        const afg::Edge& e = plan.graph->edge(idx);
        if (e.to == req.to_task && e.from_port == req.from_port) {
          bytes = std::max(plan.graph->edge_bytes(e), 64.0);
          break;
        }
      }
      (void)core_.fabric().send(net::Message{
          host_, req.new_host, msg::kDmData, bytes,
          DataDelivery{req.app, req.to_task, req.to_port,
                       out->second[static_cast<std::size_t>(req.from_port)]},
          net::MessageCause{req.app.value(), req.to_task.value(),
                            req.from_task.value()}});
    }
    return;
  }
}

}  // namespace vdce::runtime
