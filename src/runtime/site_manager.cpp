#include "runtime/site_manager.hpp"

#include <algorithm>
#include <cassert>

#include "common/strings.hpp"
#include "econ/econ.hpp"
#include "runtime/services.hpp"
#include "sched/host_selection.hpp"
#include "sched/strategy.hpp"

namespace vdce::runtime {

namespace {

/// Consecutive no-progress stall recoveries (resends / RAT re-multicasts)
/// before the coordinator stops repeating them until something completes.
constexpr int kMaxQuietStalls = 5;

}  // namespace

void SiteManager::start() {
  if (started_) return;
  started_ = true;
  progress_timer_ = core_.engine().every(core_.options().progress_period,
                                         [this] { progress_sweep(); });
  leader_echo_timer_ = core_.engine().every(
      core_.options().echo_period, [this] { leader_echo_tick(); },
      core_.options().echo_period * 0.75);
}

void SiteManager::stop() {
  progress_timer_.cancel();
  leader_echo_timer_.cancel();
}

void SiteManager::leader_echo_tick() {
  const std::vector<common::GroupId>& groups =
      core_.topology().site(site_).groups;
  if (leaders_.size() < groups.size()) leaders_.resize(groups.size());
  // Close the previous round: a leader that stayed silent is down, and with
  // it the monitoring of its whole group — mark it and recover.
  if (leader_echo_outstanding_) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const common::HostId leader = core_.topology().group(groups[i]).leader;
      LeaderState& state = leaders_[i];
      if (leader == server_) continue;
      if (state.alive_round == leader_echo_seq_ || state.reported_down) {
        continue;
      }
      state.reported_down = true;
      // Reuse the gm.host_down path: mark down, broadcast, recover apps.
      on_gm_host_down(net::Message{server_, server_, msg::kGmHostDown, 0,
                                   HostDownNotice{leader}});
    }
  }
  ++leader_echo_seq_;
  leader_echo_outstanding_ = true;
  for (common::GroupId g : groups) {
    const common::HostId leader = core_.topology().group(g).leader;
    if (leader == server_) continue;
    (void)core_.fabric().send(
        net::Message{server_, leader, msg::kSmEcho, wire::kEcho,
                     EchoPacket{server_, leader_echo_seq_}});
  }
}

void SiteManager::on_sm_echo_reply(const net::Message& message) {
  const auto& echo = message.payload.get<EchoPacket>();
  if (echo.seq != leader_echo_seq_) return;
  const std::vector<common::GroupId>& groups =
      core_.topology().site(site_).groups;
  for (std::size_t i = 0; i < groups.size() && i < leaders_.size(); ++i) {
    if (core_.topology().group(groups[i]).leader != message.src) continue;
    leaders_[i].alive_round = leader_echo_seq_;
    leaders_[i].reported_down = false;
    return;
  }
}

sched::SchedulerContext SiteManager::make_context(
    common::AppId scheduling_for) const {
  sched::SchedulerContext ctx;
  ctx.topology = &core_.topology();
  for (db::SiteRepository* repo : core_.repos()) ctx.repos.push_back(repo);
  ctx.predictor = &core_.predictor();
  ctx.local_site = site_;
  ctx.k_nearest = core_.options().k_nearest;
  ctx.obs = core_.obs();
  ctx.now = core_.now();
  ctx.reservations = &core_.reservations();
  ctx.reserving_app = scheduling_for;
  ctx.held_booking = core_.reservations().booking_of(scheduling_for);
  ctx.prices = &econ::kRateCard;
  return ctx;
}

void SiteManager::handle(const net::Message& message) {
  if (message.type == msg::kGmReport) {
    on_gm_report(message);
  } else if (message.type == msg::kGmHostDown) {
    on_gm_host_down(message);
  } else if (message.type == msg::kSmHostDown) {
    on_sm_host_down(message);
  } else if (message.type == msg::kSmAfg) {
    on_sm_afg(message);
  } else if (message.type == msg::kSmBids) {
    on_sm_bids(message);
  } else if (message.type == msg::kSmRat) {
    on_sm_rat(message);
  } else if (message.type == msg::kAcReady) {
    on_ac_ready(message);
  } else if (message.type == msg::kAcTaskDone) {
    on_ac_task_done(message);
  } else if (message.type == msg::kAcOverload) {
    on_ac_overload(message);
  } else if (message.type == msg::kSmEchoReply) {
    on_sm_echo_reply(message);
  } else if (message.type == msg::kDmOutput) {
    // I/O service: output files (Fig. 1's vector_X.dat) land back in the
    // user's object store.
    const auto& output = *message.payload.get<OutputFilePtr>();
    core_.store().put(output.path, output.value, output.size_bytes);
  }
}

// ---- repository maintenance -------------------------------------------------

void SiteManager::on_gm_report(const net::Message& message) {
  const MonReport& r = message.payload.get<GmReport>().changed;
  db::ResourcePerformanceDb& resources = core_.repo(site_).resources();
  (void)resources.record_workload(r.host, r.sample);
  // A report from a host previously marked down means it recovered.
  const db::ResourceRecord* rec = resources.record(r.host);
  if (rec != nullptr && !rec->up) (void)resources.set_host_up(r.host, true);
}

void SiteManager::on_gm_host_down(const net::Message& message) {
  const auto& notice = message.payload.get<HostDownNotice>();
  core_.emit({.kind = RuntimeEventKind::kHostDown, .track = server_.value(),
              .host = notice.host.value(), .site = site_.value()});
  (void)core_.repo(site_).resources().set_host_up(notice.host, false);

  // Advance reservations (docs/RESERVATIONS.md): a crash inside (or ahead
  // of) a committed window re-places only the victim window — the lowest-id
  // up machine that keeps the window conflict-free substitutes for the dead
  // one, and the displacement is surfaced as a typed health alert.
  if (core_.reservations().has_windows()) {
    std::vector<common::HostId> candidates;
    for (const net::Host& h : core_.topology().hosts()) {
      if (h.id != notice.host && core_.topology().host_up(h.id)) {
        candidates.push_back(h.id);
      }
    }
    for (std::uint64_t booking : core_.reservations().displace_host(
             notice.host, core_.now(), candidates)) {
      core_.emit({.kind = RuntimeEventKind::kDisplace,
                  .track = server_.value(), .host = notice.host.value(),
                  .site = site_.value(), .n = booking});
    }
  }

  // Inter-site coordination: tell the other Site Managers.
  for (const net::Site& s : core_.topology().sites()) {
    if (s.id == site_) continue;
    (void)core_.fabric().send(net::Message{server_, s.server, msg::kSmHostDown,
                                           wire::kSmall,
                                           HostDownNotice{notice.host}});
  }
  // Recover any of our own coordinated applications immediately.
  on_sm_host_down(message);
}

void SiteManager::on_sm_host_down(const net::Message& message) {
  const auto& notice = message.payload.get<HostDownNotice>();
  for (auto& [app_value, app] : apps_) {
    if (app.finished) continue;
    // Re-place every unfinished task that touches the failed host; cascade
    // handles lost intermediate outputs.
    std::vector<afg::TaskId> hit;
    for (const auto& [task_value, assignment] : app.current) {
      if (app.done.contains(task_value)) continue;
      for (common::HostId h : assignment.hosts) {
        if (h == notice.host) {
          hit.push_back(assignment.task);
          break;
        }
      }
    }
    for (afg::TaskId t : hit) {
      ++app.failures_survived;
      reschedule_task(app, t, notice.host, "host_down");
      if (app.finished) break;
    }
    if (!app.finished && !app.started) maybe_launch(app);
  }
}

// ---- distributed scheduling (Fig. 2 over the fabric) ------------------------

void SiteManager::schedule_application(common::AppId app,
                                       std::shared_ptr<const afg::Afg> graph,
                                       sched::SchedulingPolicy options,
                                       ScheduleCallback callback) {
  auto resolved = sched::resolve(options);
  if (!resolved) {
    // The environment resolves policies at bring-up and submission, so
    // reaching this means a direct caller bypassed that check.
    core_.engine().schedule(
        0.0, [callback, err = resolved.error()] { callback(err); });
    return;
  }
  auto ctx = make_context(app);
  PendingSchedule pending;
  pending.graph = graph;
  pending.policy = std::move(*resolved);
  // Candidate sites come from the resolved policy: a row's fixed access
  // domain ("vdce-local") must clip the AFG multicast, not just the
  // assignment.
  pending.sites = sched::candidate_site_set(ctx, pending.policy.policy);
  pending.callback = std::move(callback);
  pending.started = core_.now();
  if (core_.metering()) core_.meters().counter("sched.requests").add();

  // Local host selection runs in place (Fig. 2 step 4, local half).
  auto local = sched::HostSelectionAlgorithm::run(
      *graph, sched::TaskKinds::of(*graph), site_, core_.repo(site_),
      core_.predictor());
  if (!local) {
    auto cb = std::move(pending.callback);
    core_.engine().schedule(0.0, [cb, err = local.error()] { cb(err); });
    return;
  }
  if (core_.tracing()) {
    core_.trace_sink().instant(
        "sched", "sched.host_selection", core_.now(), server_.value(),
        {obs::arg("site", site_.value()),
         obs::arg("bids", std::uint64_t{local->bid_count()})},
        obs::Causal{.app = app.value()});
  }
  pending.local_output = std::move(*local);

  const auto sites = pending.sites;
  pending_.emplace(app.value(), std::move(pending));

  // Multicast the AFG to the remote candidate sites (Fig. 2 step 3).
  bool any_remote = false;
  for (common::SiteId s : sites) {
    if (s == site_) continue;
    any_remote = true;
    (void)core_.fabric().send(net::Message{
        server_, core_.topology().site(s).server, msg::kSmAfg,
        wire::afg(*graph), AfgMulticast{app, server_, graph}});
  }
  if (!any_remote) {
    finish_schedule(app.value());
    return;
  }
  // Bid deadline: an unreachable remote site (dead server, partitioned
  // link) must not stall the user; assign with whatever arrived.
  core_.engine().schedule(core_.options().bid_timeout,
                          [this, app_value = app.value()] {
                            if (pending_.contains(app_value)) {
                              finish_schedule(app_value);
                            }
                          });
}

void SiteManager::on_sm_afg(const net::Message& message) {
  const auto& request = message.payload.get<AfgMulticast>();
  // The site derives the request's task kinds from the AFG it received: the
  // same numbering the origin derives, as both read the same graph.
  auto output = sched::HostSelectionAlgorithm::run(
      *request.graph, sched::TaskKinds::of(*request.graph), site_,
      core_.repo(site_), core_.predictor());
  if (!output) return;  // cannot bid; origin proceeds without this site
  if (core_.tracing()) {
    core_.trace_sink().instant(
        "sched", "sched.host_selection", core_.now(), server_.value(),
        {obs::arg("site", site_.value()),
         obs::arg("bids", std::uint64_t{output->bid_count()})},
        obs::Causal{.app = request.app.value()});
  }
  double size = wire::bids(*output);
  (void)core_.fabric().send(net::Message{
      server_, request.reply_to, msg::kSmBids, size,
      BidsReplyPtr(std::make_shared<const BidsReply>(
          BidsReply{request.app, std::move(*output)}))});
}

void SiteManager::on_sm_bids(const net::Message& message) {
  const BidsReplyPtr& reply = message.payload.get<BidsReplyPtr>();
  auto it = pending_.find(reply->app.value());
  if (it == pending_.end()) return;
  // Keep the shared reply (aliased to its output) instead of copying it.
  it->second.remote_outputs.emplace(
      reply->output.site,
      std::shared_ptr<const sched::HostSelectionOutput>(reply, &reply->output));
  if (it->second.reply_count() == it->second.sites.size()) {
    finish_schedule(reply->app.value());
  }
}

void SiteManager::finish_schedule(std::uint32_t app_value) {
  auto it = pending_.find(app_value);
  assert(it != pending_.end());
  PendingSchedule pending = std::move(it->second);
  pending_.erase(it);

  // Candidate-site order, local first: the row reads the local output and
  // each shared, immutable bids reply in place, copying none of them.
  std::vector<const sched::HostSelectionOutput*> outputs;
  outputs.reserve(pending.reply_count());
  for (common::SiteId s : pending.sites) {
    if (s == site_ && pending.local_output) {
      outputs.push_back(&*pending.local_output);
    } else if (auto found = pending.remote_outputs.find(s);
               found != pending.remote_outputs.end()) {
      outputs.push_back(found->second.get());
    }
  }
  core_.flight(obs::FlightCode::kSchedule, server_.value(), app_value);
  if (core_.tracing()) {
    core_.trace_sink().span(
        "sched", "sched.bid_gather", pending.started, core_.now(),
        obs::kControlTrack,
        {obs::arg("app", app_value),
         obs::arg("sites", std::uint64_t{pending.sites.size()}),
         obs::arg("replies", std::uint64_t{outputs.size()})},
        obs::Causal{.app = app_value});
  }
  if (core_.metering()) {
    core_.meters()
        .histogram("sched.bid_gather_seconds")
        .add(core_.now() - pending.started);
  }
  auto ctx = make_context(common::AppId(app_value));
  pending.callback(pending.policy.row->assign(*pending.graph, ctx, outputs,
                                              pending.policy.policy));
}

// ---- execution coordination (Fig. 4) ----------------------------------------

void SiteManager::execute_application(
    common::AppId app_id, std::shared_ptr<const afg::Afg> graph,
    sched::ResourceAllocationTable rat,
    std::vector<db::TaskPerfRecord> perf, std::vector<tasklib::Kernel> kernels,
    std::unordered_map<std::uint32_t, std::unordered_map<int, tasklib::Value>>
        initial_inputs,
    ReportCallback callback, double budget, db::AccessDomain access) {
  assert(graph && rat.assignments.size() == graph->task_count());
  auto plan = std::make_shared<ExecutionPlan>();
  plan->app = app_id;
  plan->origin = server_;
  plan->graph = std::move(graph);
  plan->rat = std::move(rat);
  plan->perf = std::move(perf);
  if (kernels.empty()) kernels.resize(plan->graph->task_count());
  plan->kernels = std::move(kernels);
  plan->initial_inputs = std::move(initial_inputs);

  ActiveApp app;
  app.plan = plan;
  for (const sched::Assignment& a : plan->rat.assignments) {
    app.current.emplace(a.task.value(), a);
    app.attempts[a.task.value()] = 1;
    for (common::HostId h : a.hosts) app.involved.insert(h);
  }
  app.submitted = core_.now();
  app.budget = budget;
  app.access = access;
  app.callback = std::move(callback);
  [[maybe_unused]] const bool inserted =
      apps_.emplace(app_id.value(), std::move(app)).second;
  assert(inserted);
  core_.flight(obs::FlightCode::kAppStart, server_.value(), app_id.value());

  // Reserve every machine of the allocation table before any other
  // application's scheduling round can observe this execution — acquisition
  // is atomic with the decision to execute (same engine event), so two
  // concurrent applications can never double-book a host.
  core_.reservations().acquire(app_id, plan->rat.hosts_used());

  // Multicast the allocation table to every involved site's Site Manager
  // (self included: the local hop uses the loopback link).
  RatMulticast rat_msg{plan};
  for (common::SiteId s : plan->rat.sites_used()) {
    (void)core_.fabric().send(net::Message{server_,
                                           core_.topology().site(s).server,
                                           msg::kSmRat, wire::rat(plan->rat),
                                           rat_msg});
  }
}

void SiteManager::on_sm_rat(const net::Message& message) {
  const auto& rat = message.payload.get<RatMulticast>();
  // Forward to each of our group leaders whose group has an involved member.
  for (common::GroupId gid : core_.topology().site(site_).groups) {
    const net::Group& group = core_.topology().group(gid);
    bool involved = false;
    for (const sched::Assignment& a : rat.plan->rat.assignments) {
      for (common::HostId h : a.hosts) {
        const net::Host& host = core_.topology().host(h);
        if (host.group == group.id) {
          involved = true;
          break;
        }
      }
      if (involved) break;
    }
    if (!involved) continue;
    (void)core_.fabric().send(net::Message{server_, group.leader,
                                           msg::kSmRatGm,
                                           wire::rat(rat.plan->rat),
                                           rat});
  }
}

void SiteManager::on_ac_ready(const net::Message& message) {
  const auto& notice = message.payload.get<ReadyNotice>();
  auto it = apps_.find(notice.app.value());
  if (it == apps_.end()) return;
  it->second.ready.insert(notice.host);
  maybe_launch(it->second);
}

void SiteManager::maybe_launch(ActiveApp& app) {
  if (app.started || app.finished) return;
  for (common::HostId h : app.involved) {
    if (app.ready.contains(h)) continue;
    // A host that is recorded down does not block the launch; its tasks
    // have been (or will be) rescheduled by the recovery path.
    const db::ResourceRecord* rec =
        core_.repo(core_.topology().host(h).site).resources().record(h);
    if (rec != nullptr && !rec->up) continue;
    // Nor does a host that holds none of the current assignments: recovery
    // moved its tasks away before launch, so it never receives gm.exec and
    // never reports ready, even after it comes back up.
    const bool holds_task = std::ranges::any_of(
        app.current, [h](const auto& entry) {
          return std::ranges::find(entry.second.hosts, h) !=
                 entry.second.hosts.end();
        });
    if (!holds_task) continue;
    return;  // still waiting for this host
  }
  app.started = true;
  app.exec_started = core_.now();

  // Stage non-dataflow file inputs (I/O service) before releasing execution.
  for (const afg::TaskNode& t : app.plan->graph->tasks()) {
    stage_file_inputs(app, t.id);
  }
  for (common::HostId h : app.involved) {
    (void)core_.fabric().send(net::Message{server_, h, msg::kSmStart,
                                           wire::kSmall,
                                           StartSignal{app.plan->app}});
  }
}

void SiteManager::stage_file_inputs(ActiveApp& app, afg::TaskId task) {
  const afg::TaskNode& node = app.plan->graph->task(task);
  const sched::Assignment& assignment = app.current.at(task.value());
  auto task_inputs = app.plan->initial_inputs.find(task.value());
  for (int port = 0; port < node.in_ports(); ++port) {
    const afg::FileSpec& f = node.props.inputs[static_cast<std::size_t>(port)];
    if (f.dataflow || f.path.empty()) continue;
    tasklib::Value value;
    if (task_inputs != app.plan->initial_inputs.end()) {
      auto v = task_inputs->second.find(port);
      if (v != task_inputs->second.end()) value = v->second;
    }
    (void)core_.fabric().send(net::Message{
        server_, assignment.primary_host(), msg::kDmInput,
        std::max(f.size_bytes, 64.0),
        DataDelivery{app.plan->app, task, port, std::move(value)},
        // Staging transfer: feeds `task`, no producer task (src_task unset).
        net::MessageCause{app.plan->app.value(), task.value()}});
  }
}

void SiteManager::on_ac_task_done(const net::Message& message) {
  const TaskDone& done = *message.payload.get<TaskDonePtr>();
  auto it = apps_.find(done.app.value());
  if (it == apps_.end()) return;
  ActiveApp& app = it->second;
  if (app.finished || app.done.contains(done.task.value())) return;

  if (done.failed) {
    complete_app(app, false,
                 "task " + app.plan->graph->task(done.task).instance_name +
                     " failed: " + done.error);
    return;
  }

  app.done.insert(done.task.value());
  const sched::Assignment& assignment = app.current.at(done.task.value());
  TaskOutcome outcome;
  outcome.task = done.task;
  outcome.task_name = app.plan->graph->task(done.task).instance_name;
  outcome.host = done.host;
  outcome.site = core_.topology().host(done.host).site;
  outcome.started = done.started;
  outcome.finished = done.finished;
  outcome.attempts = app.attempts[done.task.value()];
  app.outcomes[done.task.value()] = outcome;
  (void)assignment;

  // Close out this task's recovery events: downtime runs from detection to
  // the start of the attempt that finally completed it.
  for (RecoveryEvent& r : app.recoveries) {
    if (r.task == done.task && r.downtime == 0.0) {
      r.downtime = std::max(0.0, done.started - r.detected_at);
    }
  }

  // "updates the task-performance database with the execution time after an
  // application execution is completed" — each execution sharpens the
  // hosting site's measured history.  Tasks unknown to that site (e.g.
  // synthetic ones resolved on the fly) are registered from the plan first.
  db::TaskPerformanceDb& task_db = core_.repo(outcome.site).tasks();
  const std::string& task_name = app.plan->graph->task(done.task).task_name;
  if (!task_db.contains(task_name)) {
    task_db.register_task(app.plan->perf[done.task.value()]);
  }
  (void)task_db.record_execution(task_name, done.host, done.elapsed);

  if (app.plan->graph->out_degree(done.task) == 0 &&
      done.exit_output.has_value()) {
    app.exit_outputs[done.task.value()] = done.exit_output;
  }

  if (app.done.size() == app.plan->graph->task_count()) {
    complete_app(app, true, "");
  }
}

void SiteManager::on_ac_overload(const net::Message& message) {
  const auto& notice = message.payload.get<OverloadNotice>();
  auto it = apps_.find(notice.app.value());
  if (it == apps_.end()) return;
  ActiveApp& app = it->second;
  if (app.finished || app.done.contains(notice.task.value())) return;
  ++app.reschedules;

  // Anti-livelock: after the attempt cap, restart the task where it was and
  // pin it — moving again under fleet-wide load just keeps resetting its
  // progress to zero.
  if (app.attempts[notice.task.value()] >= kMaxTaskAttempts) {
    core_.emit({.kind = RuntimeEventKind::kPin, .track = server_.value(),
                .host = notice.host.value(), .site = site_.value()});
    ++app.attempts[notice.task.value()];
    record_recovery(app, "pin", notice.task, notice.host, notice.host);
    dispatch_updated_plan(app, notice.task, /*pin=*/true);
    return;
  }
  reschedule_task(app, notice.task, notice.host, "overload");
}

// ---- recovery ----------------------------------------------------------------

bool SiteManager::consume_recovery_budget(ActiveApp& app, const char* action) {
  if (++app.recovery_actions <= core_.options().max_app_recovery_actions) {
    return true;
  }
  core_.emit({.kind = RuntimeEventKind::kEscalation, .track = server_.value(),
              .site = site_.value(), .app = app.plan->app.value(),
              .n = static_cast<std::uint64_t>(app.recovery_actions - 1),
              .label = action});
  complete_app(app, false,
               "recovery budget exhausted after " +
                   std::to_string(app.recovery_actions - 1) +
                   " actions (last attempted: " + std::string(action) + ")");
  return false;
}

void SiteManager::reschedule_task(ActiveApp& app, afg::TaskId task,
                                  common::HostId bad_host, const char* reason) {
  if (app.finished || app.done.contains(task.value())) return;
  if (!consume_recovery_budget(app, reason)) return;
  app.excluded[task.value()].insert(bad_host);

  const afg::TaskNode& node = app.plan->graph->task(task);
  const db::TaskPerfRecord& perf = app.plan->perf[task.value()];
  // Recovery asks the scheduling round's filter (sched/host_filter.hpp)
  // inside the application's access domain: machines held by concurrent
  // applications and machines inside foreign committed windows are
  // unavailable.  Two inputs differ.  The task already blew its prediction
  // once, so there is no trustworthy completion estimate and it never
  // backfills across a pending foreign window.  The application's *own*
  // booking is not a limit: like the preferred-machine preference below,
  // surviving beats staying inside the booked set when the booked machine
  // died.
  auto ctx = make_context(app.plan->app);
  ctx.held_booking = 0;
  sched::SchedulingPolicy policy;
  policy.access = app.access;
  policy.backfill = false;
  sched::HostFilter filter(ctx, policy);
  const auto sites = sched::candidate_site_set(ctx, policy);
  const auto& excluded = app.excluded[task.value()];

  const auto need = node.props.mode == afg::ComputationMode::kParallel
                        ? static_cast<std::size_t>(node.props.num_nodes)
                        : std::size_t{1};

  // Work already parked on each host by this application's *unfinished*
  // tasks: without this penalty, several simultaneously rescheduled tasks
  // would all pick the same fastest machine and serialize on it.
  std::unordered_map<common::HostId, double> pending_work;
  for (const auto& [other_value, other] : app.current) {
    if (other_value == task.value() || app.done.contains(other_value)) continue;
    for (common::HostId h : other.hosts) {
      pending_work[h] += other.predicted_time;
    }
  }

  // The user's preferred machine/type is a preference, not a survival
  // constraint: when the preferred machine is the one that failed (or is
  // excluded), recovery relaxes the preference rather than failing the
  // application.
  afg::TaskNode relaxed = node;
  relaxed.props.preferred_machine.clear();
  relaxed.props.preferred_machine_type.clear();

  // Economy (docs/ECONOMY.md): a budgeted application's re-placement must
  // keep the quoted spend within the user's budget — a machine the user
  // cannot pay for is as unavailable as a reserved one.  Each candidate is
  // re-quoted against the current assignments with itself substituted, the
  // same estimate the admission gate charged, so spend() <= budget survives
  // recovery by construction.
  const bool budgeted = app.budget > 0.0;
  bool any_unaffordable = false;
  auto affordable = [&](const sched::Assignment& candidate) {
    if (!budgeted) return true;
    if (quote_current(app, &candidate).total() <= app.budget) return true;
    any_unaffordable = true;
    return false;
  };

  bool found = false;
  sched::Assignment chosen;
  double best_objective = 0.0;
  for (int attempt = 0; attempt < 2 && !found; ++attempt) {
    const afg::TaskNode& candidate_node = attempt == 0 ? node : relaxed;
    for (common::SiteId s : sites) {
      auto ranked = sched::HostSelectionAlgorithm::feasible_hosts(
          candidate_node, perf, s, core_.repo(s), core_.predictor());
      for (const sched::RankedHost& rh : ranked) {
        if (excluded.contains(rh.record.host)) continue;
        if (!filter.admits(rh.record.host)) continue;
        if (need == 1) {
          double queue = 0.0;
          if (auto it = pending_work.find(rh.record.host);
              it != pending_work.end()) {
            queue = it->second;
          }
          double objective = queue + rh.predicted;
          if (!found || objective < best_objective) {
            sched::Assignment candidate{task, s, {rh.record.host}, rh.predicted,
                                        0.0, 0.0};
            if (!affordable(candidate)) continue;
            found = true;
            best_objective = objective;
            chosen = candidate;
          }
        }
      }
      if (need > 1) {
        // Parallel groups: the group rule over the fastest non-excluded
        // machines of the site (group reschedules are rare; spreading
        // within the group is second-order).
        std::vector<const db::ResourceRecord*> admitted;
        for (const sched::RankedHost& rh : ranked) {
          if (excluded.contains(rh.record.host)) continue;
          if (!filter.admits(rh.record.host)) continue;
          admitted.push_back(&rh.record);
          if (admitted.size() == need) break;
        }
        auto predicted = sched::HostSelectionAlgorithm::group_bid(
            candidate_node, perf, s, admitted, core_.repo(s),
            core_.predictor());
        if (!predicted) continue;
        if (!found || *predicted < best_objective) {
          std::vector<common::HostId> group;
          for (const db::ResourceRecord* r : admitted) group.push_back(r->host);
          sched::Assignment candidate{task, s, std::move(group), *predicted,
                                      0.0, 0.0};
          if (!affordable(candidate)) continue;
          found = true;
          best_objective = candidate.predicted_time;
          chosen = candidate;
        }
      }
    }
  }
  if (!found) {
    complete_app(app, false,
                 any_unaffordable
                     ? "no affordable resource to reschedule " +
                           node.instance_name + " within the " +
                           common::format_double(app.budget, 2) + " G$ budget"
                     : "no feasible resource to reschedule " +
                           node.instance_name);
    return;
  }

  // Causal tag: the next exec.task span of this task is the relaunched
  // attempt this recovery action caused.
  core_.emit({.kind = RuntimeEventKind::kReschedule, .track = server_.value(),
              .host = bad_host.value(), .site = site_.value(),
              .app = app.plan->app.value(), .task = task.value(),
              .m = chosen.primary_host().value(),
              .label = node.instance_name});

  app.current[task.value()] = chosen;
  ++app.attempts[task.value()];
  for (common::HostId h : chosen.hosts) app.involved.insert(h);
  core_.reservations().acquire(app.plan->app, chosen.hosts);
  record_recovery(app, reason, task, bad_host, chosen.primary_host());

  // Parents whose cached outputs lived on a failed host must re-execute
  // before they can feed the moved task (cascading recovery).
  for (std::uint32_t idx : app.plan->graph->in_edge_ids(task)) {
    const afg::Edge& e = app.plan->graph->edge(idx);
    const sched::Assignment& parent = app.current.at(e.from.value());
    if (!core_.topology().host_up(parent.primary_host()) &&
        app.done.contains(e.from.value())) {
      app.done.erase(e.from.value());
      app.outcomes.erase(e.from.value());
      reschedule_task(app, e.from, parent.primary_host(), "cascade");
      if (app.finished) return;
    }
  }

  dispatch_updated_plan(app, task);
}

econ::SpendBreakdown SiteManager::quote_current(
    const ActiveApp& app, const sched::Assignment* substitute) const {
  sched::ResourceAllocationTable rat = app.plan->rat;
  for (sched::Assignment& a : rat.assignments) {
    a = substitute != nullptr && substitute->task == a.task
            ? *substitute
            : app.current.at(a.task.value());
  }
  return econ::estimate_spend(*app.plan->graph, rat, core_.topology(),
                              econ::kRateCard);
}

PlanPtr SiteManager::current_plan(const ActiveApp& app) const {
  auto plan = std::make_shared<ExecutionPlan>(*app.plan);
  for (sched::Assignment& a : plan->rat.assignments) {
    a = app.current.at(a.task.value());
  }
  return plan;
}

void SiteManager::dispatch_updated_plan(ActiveApp& app, afg::TaskId task,
                                        bool pin) {
  PlanPtr plan = current_plan(app);
  const sched::Assignment& assignment = app.current.at(task.value());

  // Targeted re-dispatch: the coordinator already knows the exact machine,
  // so the Group Manager fan-out is skipped for this one request.
  (void)core_.fabric().send(net::Message{
      server_, assignment.primary_host(), msg::kGmExec, wire::kSmall,
      ExecRequest{plan, assignment.primary_host(),
                  pin ? task : afg::TaskId{}}});
  if (app.started) {
    (void)core_.fabric().send(net::Message{server_, assignment.primary_host(),
                                           msg::kSmStart, wire::kSmall,
                                           StartSignal{plan->app}});
    stage_file_inputs(app, task);
    // Pull dataflow inputs from each parent's current host.
    for (std::uint32_t idx : app.plan->graph->in_edge_ids(task)) {
      const afg::Edge& e = app.plan->graph->edge(idx);
      const sched::Assignment& parent = app.current.at(e.from.value());
      if (!core_.topology().host_up(parent.primary_host())) continue;
      (void)core_.fabric().send(net::Message{
          server_, parent.primary_host(), msg::kDmResend, wire::kSmall,
          ResendRequest{plan->app, e.from, e.from_port, task, e.to_port,
                        assignment.primary_host()}});
    }
  }
}

void SiteManager::progress_sweep() {
  for (auto& [app_value, app] : apps_) {
    if (app.finished) continue;
    // Safety net: catch tasks stranded on hosts recorded down whose
    // notifications raced with plan dispatch.
    std::vector<std::pair<afg::TaskId, common::HostId>> stranded;
    for (const auto& [task_value, assignment] : app.current) {
      if (app.done.contains(task_value)) continue;
      for (common::HostId h : assignment.hosts) {
        if (!core_.topology().host_up(h)) {
          stranded.emplace_back(assignment.task, h);
          break;
        }
      }
    }
    for (const auto& [task, host] : stranded) {
      ++app.failures_survived;
      reschedule_task(app, task, host, "host_down");
      if (app.finished) break;
    }
    if (app.finished) continue;

    if (!app.started) {
      maybe_launch(app);
      if (app.started || app.finished) continue;
      // Still waiting for readiness reports: after stall_sweeps quiet
      // sweeps, assume the allocation-table fan-out (or the readiness
      // replies) were lost and re-multicast the RAT.  Re-activation is
      // idempotent at every hop.
      if (++app.prestart_sweeps < core_.options().stall_sweeps) continue;
      app.prestart_sweeps = 0;
      if (++app.quiet_stalls > kMaxQuietStalls) continue;  // stop spamming
      core_.emit({.kind = RuntimeEventKind::kRelaunch,
                  .track = server_.value(), .site = site_.value(),
                  .app = app.plan->app.value()});
      record_recovery(app, "relaunch");
      PlanPtr plan = current_plan(app);
      for (common::SiteId s : plan->rat.sites_used()) {
        (void)core_.fabric().send(net::Message{
            server_, core_.topology().site(s).server, msg::kSmRat,
            wire::rat(plan->rat), RatMulticast{plan}});
      }
      continue;
    }

    // Running but nothing newly finished: after stall_sweeps quiet sweeps,
    // re-send start signals and inputs (lost-message safety net).
    if (app.done.size() != app.last_done_count) {
      app.last_done_count = app.done.size();
      app.stalled_sweeps = 0;
      app.quiet_stalls = 0;
    } else if (++app.stalled_sweeps >= core_.options().stall_sweeps) {
      app.stalled_sweeps = 0;
      stall_recover(app);
    }
  }
}

void SiteManager::stall_recover(ActiveApp& app) {
  // A quiet period is not proof of a wedge — a long task completes nothing
  // for many sweeps — and every resend is idempotent, so stalls do not
  // charge the recovery budget.  They are merely rate-capped: if repeated
  // resends change nothing, more of them will not either.
  if (++app.quiet_stalls > kMaxQuietStalls) return;
  core_.emit({.kind = RuntimeEventKind::kStall, .track = server_.value(),
              .site = site_.value(), .app = app.plan->app.value(),
              .n = app.done.size(), .m = app.plan->graph->task_count()});
  record_recovery(app, "stall");

  // Re-dispatch every unfinished task to its current host: re-activates the
  // Data Manager (idempotent merge), repeats the start signal (which also
  // replays completion notices we may have missed), re-stages file inputs
  // (duplicate deliveries are dropped on filled ports), and pulls dataflow
  // inputs from finished parents again.
  for (const auto& [task_value, assignment] : app.current) {
    if (app.done.contains(task_value)) continue;
    if (!core_.topology().host_up(assignment.primary_host())) continue;
    dispatch_updated_plan(app, assignment.task);
  }
}

void SiteManager::record_recovery(ActiveApp& app, const char* reason,
                                  afg::TaskId task, common::HostId from,
                                  common::HostId to) {
  const int attempt = task.valid() ? app.attempts[task.value()] : 0;
  app.recoveries.push_back(
      RecoveryEvent{task, reason, core_.now(), from, to, attempt, 0.0});
}

void SiteManager::complete_app(ActiveApp& app, bool success,
                               const std::string& reason) {
  app.finished = true;
  // Free this application's machines for queued tenants (success or not —
  // a failed application must not strand its reservations).
  core_.reservations().release(app.plan->app);
  ExecutionReport report;
  report.app = app.plan->app;
  report.app_name = app.plan->graph->name();
  report.scheduler = app.plan->rat.scheduler_name;
  report.success = success;
  report.failure_reason = reason;
  report.submitted = app.submitted;
  report.exec_started = app.started ? app.exec_started : core_.now();
  report.completed = core_.now();
  report.reschedules = app.reschedules;
  report.failures_survived = app.failures_survived;
  report.recoveries = app.recoveries;
  for (const afg::TaskNode& t : app.plan->graph->tasks()) {
    auto it = app.outcomes.find(t.id.value());
    if (it != app.outcomes.end()) report.outcomes.push_back(it->second);
  }
  // Causal structure for ExecutionReport::critical_path(): the report is
  // self-contained — no need to keep the AFG around to analyze it.
  for (const afg::Edge& e : app.plan->graph->edges()) {
    report.dag_edges.emplace_back(e.from.value(), e.to.value());
  }
  report.exit_outputs = app.exit_outputs;
  // Economy (docs/ECONOMY.md): quote the *final* placements — recovery
  // re-placements were budget-gated, so this total respects the budget for
  // every run that was admitted.  Unbudgeted runs keep a zero quote, which
  // keeps their reports byte-identical to the pre-economy pipeline.
  if (app.budget > 0.0) {
    report.budget = app.budget;
    report.spend_parts = quote_current(app);
  }
  core_.flight(obs::FlightCode::kAppDone, server_.value(),
               report.app.value(), success ? 1u : 0u, report.makespan());

  if (core_.metering()) {
    obs::MetricsRegistry& m = core_.meters();
    m.counter(success ? "app.completed" : "app.failed").add();
    if (success) {
      m.histogram("app.setup_seconds").add(report.setup_time());
      m.histogram("app.makespan").add(report.makespan());
    }
  }
  if (core_.tracing()) {
    obs::TraceSink& sink = core_.trace_sink();
    sink.span("app", "app.setup", report.submitted, report.exec_started,
              obs::kControlTrack, {obs::arg("app", report.app.value())},
              obs::Causal{.app = report.app.value()});
    sink.span("app", "app.run", report.exec_started, report.completed,
              obs::kControlTrack,
              {obs::arg("app", report.app.value()),
               obs::arg("name", report.app_name),
               obs::arg("success", success),
               obs::arg("reschedules", std::int64_t{report.reschedules}),
               obs::arg("failures_survived",
                        std::int64_t{report.failures_survived})},
              obs::Causal{.app = report.app.value()});
  }

  if (app.callback) app.callback(std::move(report));
}

void SiteManager::suspend_application(common::AppId app_id) {
  auto it = apps_.find(app_id.value());
  if (it == apps_.end()) return;
  for (common::HostId h : it->second.involved) {
    (void)core_.fabric().send(net::Message{server_, h, msg::kSmSuspend,
                                           wire::kSmall,
                                           SuspendSignal{app_id}});
  }
}

void SiteManager::resume_application(common::AppId app_id) {
  auto it = apps_.find(app_id.value());
  if (it == apps_.end()) return;
  for (common::HostId h : it->second.involved) {
    (void)core_.fabric().send(net::Message{server_, h, msg::kSmResume,
                                           wire::kSmall,
                                           SuspendSignal{app_id}});
  }
}

}  // namespace vdce::runtime
