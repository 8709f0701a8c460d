// VdceEnvironment — the public façade of the library.
//
// Owns the full simulated deployment: the topology, the discrete-event
// engine and fabric, one site repository per site, the per-host daemons
// (HostAgents wiring Monitor / Group Manager / Site Manager / Application
// Controller / Data Manager), the task registry, the user object store, and
// the background-load generator.
//
// Typical use (see examples/quickstart.cpp):
//
//   VdceEnvironment env(vdce::make_campus_pair());
//   env.bring_up();
//   auto session = env.login(SiteId(0), "user_k", "secret").value();
//   editor::AppBuilder app("my-app");
//   ... build the AFG ...
//   auto report = env.run_application(app.build().value(), session);
//
// `run_application` performs the paper's full pipeline in simulated time:
// distributed scheduling (AFG multicast -> host selection -> assignment),
// RAT distribution, channel setup, staging, execution with monitoring and
// recovery, and returns the ExecutionReport.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "afg/graph.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/expected.hpp"
#include "db/site_repository.hpp"
#include "obs/obs.hpp"
#include "dsm/dsm.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "runtime/core.hpp"
#include "runtime/execution.hpp"
#include "runtime/host_agent.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/services.hpp"
#include "scale/generate.hpp"
#include "sched/site_scheduler.hpp"
#include "sim/engine.hpp"
#include "tasklib/registry.hpp"
#include "tenancy/tenancy.hpp"

namespace vdce {

// ---------------------------------------------------------------------------
// Error taxonomy
//
// Every fallible entry point returns common::Expected<T> (or common::Status)
// carrying a common::Error{code, message}.  The codes mean, across this API:
//
//   kInvalidArgument     — the call itself is malformed: bring-up repeated,
//                          a malformed fault plan, bad options.
//   kNotFound            — a named thing does not exist: unknown site id,
//                          unknown user, a task name absent from both the
//                          task library and the kernel registry, a fault
//                          plan referencing a host/site the topology lacks,
//                          a missing input object.
//   kPermissionDenied    — authentication failed or the access domain
//                          forbids the operation.
//   kNoFeasibleResource  — scheduling found no machine satisfying the
//                          task's constraints, or admission control
//                          rejected the deadline.
//   kQuotaExceeded       — multi-tenant admission control turned a
//                          submission away: the user's quota or the global
//                          admission-queue bound is exhausted (retry after
//                          in-flight applications finish).
//   kBudgetExceeded      — the economy plane's admission gate rejected the
//                          submission: the quoted spend of the best schedule
//                          found already exceeds RunOptions::budget
//                          (docs/ECONOMY.md); raise the budget, relax the
//                          deadline, or pick a cost-optimising strategy.
//                          Unlike kQuotaExceeded this is not retryable —
//                          waiting changes nothing about the price.
//   kReservationConflict — an advance-reservation request overlaps a window
//                          already committed on the same host or link
//                          capacity (docs/RESERVATIONS.md); pick a
//                          different interval or different machines.
//   kHostDown            — a required host is down right now.
//   kTimeout             — a synchronous wait exceeded
//                          EnvironmentOptions::sync_timeout.
//   kParseError          — DSL / fault-plan text did not parse.
//   kInternal            — an invariant broke (the environment is not up,
//                          the simulation drained mid-operation); a bug or
//                          misuse, not a user-data problem.
//
// Messages always name the offending entity (task, host, site, user), so
// they can be surfaced to users verbatim.
// ---------------------------------------------------------------------------

/// An authenticated editor session (the result of the paper's "user
/// authentication" step before the Application Editor is served).
struct Session {
  common::SiteId site;        ///< the site the user connected to
  db::UserAccount account;
};

struct EnvironmentOptions {
  runtime::RuntimeOptions runtime;
  /// Start the background-load generator at bring-up.
  bool background_load = false;
  runtime::LoadGeneratorOptions load;
  /// Abort a synchronous wait after this much simulated time.
  common::SimDuration sync_timeout = 24.0 * 3600.0;

  /// Structured metrics (counters / gauges / histograms over the daemons,
  /// fabric, scheduler, and executions).  Read them via env.metrics().
  obs::MetricsOptions metrics;
  /// Structured tracing: typed span/instant records stamped with simulated
  /// time.  Export via env.trace().write_chrome_trace(path) and open in
  /// chrome://tracing or Perfetto.  Off by default — when disabled every
  /// instrumentation site is a single predictable branch.
  obs::TraceOptions trace;
  /// Always-on flight recorder: a fixed-size ring of recent runtime events
  /// kept even when tracing is off, auto-dumped to
  /// flight.postmortem_path when recovery escalates or bring-up/run fails.
  /// Near-zero cost (preallocated POD ring, no allocation per record) — see
  /// docs/OBSERVABILITY.md.
  obs::FlightOptions flight;
  /// Live health plane (obs/health.hpp, docs/OBSERVABILITY.md): windowed
  /// time-series over monitor samples / queue depth / recovery actions /
  /// inter-site probe RTTs, declarative SLO rules evaluated every `cadence`
  /// simulated seconds, and typed alerts surfaced through env.health(),
  /// ExecutionReport::alerts, and the trace stream (replayable offline via
  /// vdce-inspect --alerts).  Off by default; a disabled plane registers
  /// nothing and leaves traces byte-identical to a build without it.
  obs::health::HealthOptions health;

  /// Deterministic fault injection: when non-empty, bring-up arms this plan
  /// against the environment (crashes, partitions, loss, slowdowns, stale
  /// monitors fire at their simulated instants).  Identical (plan, seeds)
  /// produce byte-identical fault/recovery traces — see
  /// docs/FAULT_INJECTION.md.  Inspect the injector via env.chaos().
  chaos::FaultPlan faults;

  /// Multi-tenant admission control for the asynchronous submission API
  /// (docs/TENANCY.md): concurrent-application bound, per-user quotas, and
  /// the FIFO/priority admission order.  The defaults never reject a
  /// sequential caller, so run_application() behaves as before.
  tenancy::TenancyOptions tenancy;
};

// --- advance reservations (docs/RESERVATIONS.md) ---------------------------

/// A request for a committed time window over named machines (and,
/// optionally, a fraction of one directed inter-host link).  Passed to
/// VdceEnvironment::reserve(); on success the window is booked in the site
/// schedulers' shared WindowTable and foreign work is conservatively
/// backfilled around it.
struct ReservationRequest {
  /// Machines the window covers (need not be sorted; duplicates collapse).
  std::vector<common::HostId> hosts;
  common::SimTime start = 0.0;  ///< window opens (absolute simulated time)
  common::SimTime end = 0.0;    ///< window closes; must be > start
  /// Optional directed link share: while the window is open, `link_fraction`
  /// of the src->dst capacity is considered booked.  Leave the hosts invalid
  /// to reserve machines only.
  common::HostId link_src;
  common::HostId link_dst;
  double link_fraction = 0.0;
};

/// Proof of a committed reservation, returned by reserve().  Attach it to
/// RunOptions::reservation so the submission parks until the window opens
/// and then schedules exclusively onto the booked machines.
struct ReservationTicket {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

struct RunOptions {
  sched::SchedulingPolicy sched;
  /// Execute with real kernels from the registry (false = timing-only).
  bool real_kernels = true;
  /// QoS: requested completion deadline in seconds of makespan (0 = none).
  common::SimDuration deadline = 0.0;
  /// Admission control: reject before execution if the scheduler's
  /// estimated schedule length already exceeds the deadline (the user can
  /// retry with a wider access domain or fewer constraints).
  bool enforce_admission = false;
  /// Economy (docs/ECONOMY.md): spending cap in G$ over the quoted cost of
  /// the schedule (per-task predicted CPU-seconds at host prices plus
  /// per-edge bytes at link prices); 0 = unconstrained.  A positive budget
  /// is always enforced: submissions whose quoted spend exceeds it are
  /// rejected with kBudgetExceeded before execution (independent of
  /// enforce_admission — a spend cap is a hard constraint, not a QoS hint),
  /// and recovery re-placements are restricted to machines that keep the
  /// quote within it.  Both deadline and budget are copied into the
  /// scheduling policy so the cost-aware `dbc-cost` / `dbc-time` strategies
  /// can optimise against them.
  double budget = 0.0;
  /// Advance-reservation ticket from reserve().  A valid ticket parks the
  /// admitted submission until its window opens (AppState::kReserved) and
  /// restricts placement to the booked machines; the default (invalid)
  /// ticket leaves the pipeline exactly as before.
  ReservationTicket reservation;
};

/// Opaque ticket for an asynchronous submission (docs/TENANCY.md).  Returned
/// by submit_application(); redeem it with wait() / report(), or finish the
/// whole fleet with drain().
struct AppHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

/// Where a submission currently is in the admission -> schedule -> execute
/// pipeline.
enum class AppState {
  kQueued,      ///< accepted, waiting for an admission slot
  kReserved,    ///< admitted with a reservation ticket; parked until the
                ///< committed window opens (docs/RESERVATIONS.md)
  kScheduling,  ///< admitted; Fig. 2 scheduling in flight
  kDeferred,    ///< every candidate machine was held by concurrent apps;
                ///< re-queued, retries after the next completion
  kExecuting,   ///< allocation table decided; Fig. 4 execution in flight
  kFinished,    ///< terminal — wait()/report() return the result
};

/// Convenience bring-up of a generated grid-scale deployment (the scale
/// plane's S sites × H hosts topologies; see scale/generate.hpp and
/// docs/SCALING.md).
struct ScaleSpec {
  scale::GridSpec grid;
  EnvironmentOptions options;
  /// Account created at every site after bring-up (empty = skip).
  std::string admin_user = "scale_admin";
  std::string admin_password = "scale";
};

class VdceEnvironment {
 public:
  explicit VdceEnvironment(net::Topology topology,
                           EnvironmentOptions options = {});
  ~VdceEnvironment();

  VdceEnvironment(const VdceEnvironment&) = delete;
  VdceEnvironment& operator=(const VdceEnvironment&) = delete;

  /// Create repositories, seed them from the task registry, start every
  /// daemon, and arm the fault plan (if EnvironmentOptions::faults is
  /// non-empty).  Must be called exactly once before any other operation.
  /// Fails (kInvalidArgument / kNotFound) on a repeated call or a fault
  /// plan that is malformed or references hosts/sites this topology lacks.
  [[nodiscard]] common::Status try_bring_up();

  /// Deprecated shim over try_bring_up(): prints the error and aborts on
  /// failure.  Prefer try_bring_up() in new code.
  void bring_up();

  // --- component access --------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Topology& topology() noexcept { return topology_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] tasklib::TaskRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] runtime::ObjectStore& store() noexcept { return store_; }
  [[nodiscard]] runtime::BackgroundLoadGenerator& background();
  [[nodiscard]] runtime::RuntimeCore& core();

  /// Checked accessors: an unknown site id or an environment that has not
  /// been brought up yields a descriptive error instead of undefined
  /// behaviour.
  [[nodiscard]] common::Expected<std::reference_wrapper<db::SiteRepository>>
  try_repo(common::SiteId site);
  [[nodiscard]] common::Expected<std::reference_wrapper<runtime::SiteManager>>
  try_site_manager(common::SiteId site);

  /// Unchecked forms of the above: print a diagnostic and abort on misuse
  /// (never silently corrupt).
  [[nodiscard]] db::SiteRepository& repo(common::SiteId site);
  [[nodiscard]] runtime::SiteManager& site_manager(common::SiteId site);

  /// Deployment enumeration, for tooling that walks the testbed without
  /// reaching into the topology object.
  [[nodiscard]] const std::vector<net::Site>& sites() const noexcept {
    return topology_.sites();
  }
  [[nodiscard]] const std::vector<net::Host>& hosts() const noexcept {
    return topology_.hosts();
  }

  // --- observability -------------------------------------------------------
  /// The environment's metrics/trace bundle (shared with every daemon).
  [[nodiscard]] obs::Observability& observability() noexcept { return obs_; }
  /// Metrics registry; refreshes the `sim.*` gauges (clock, event counts,
  /// queue high-water mark) so a snapshot or export is current.
  [[nodiscard]] obs::MetricsRegistry& metrics();
  [[nodiscard]] obs::TraceSink& trace() noexcept { return obs_.trace(); }
  /// The always-on flight recorder (post-mortem ring); see
  /// EnvironmentOptions::flight.
  [[nodiscard]] obs::FlightRecorder& flight_recorder() noexcept {
    return obs_.flight();
  }
  /// The live health plane (series, rules, alert log, OpenMetrics export);
  /// see EnvironmentOptions::health.  Valid whether or not the plane is
  /// enabled — a disabled plane just holds no series and no alerts.
  [[nodiscard]] obs::health::HealthPlane& health() noexcept {
    return obs_.health();
  }

  /// Start the distributed-shared-memory service (the paper's §5 future
  /// work) across every host.  Idempotent; returns the runtime for defining
  /// objects and creating per-host clients.
  dsm::DsmRuntime& enable_dsm();

  // --- fault injection ------------------------------------------------------
  /// The armed chaos injector (its deterministic log, drop counters, plan),
  /// or null when EnvironmentOptions::faults was empty.
  [[nodiscard]] chaos::ChaosInjector* chaos() noexcept { return chaos_.get(); }

  // --- accounts & sessions -------------------------------------------------
  /// Create the account at every site (the prototype replicated accounts).
  /// Fails when the environment is not up or any site rejects the account
  /// (e.g. a duplicate name).
  [[nodiscard]] common::Status try_add_user(
      const std::string& name, const std::string& password, int priority = 1,
      db::AccessDomain domain = db::AccessDomain::kGlobal);

  /// Deprecated shim over try_add_user(): prints the error and aborts on
  /// failure.  Prefer try_add_user() in new code.
  void add_user(const std::string& name, const std::string& password,
                int priority = 1,
                db::AccessDomain domain = db::AccessDomain::kGlobal);
  common::Expected<Session> login(common::SiteId site, const std::string& name,
                                  const std::string& password);

  // --- advance reservations (docs/RESERVATIONS.md) -------------------------
  /// Commit a time window over the requested machines (and optional link
  /// share).  Typed rejections: kInvalidArgument (empty host list, end <=
  /// start, window opening in the past), kNotFound (a host the topology
  /// lacks), kQuotaExceeded (TenancyOptions::max_reservations_per_user),
  /// kReservationConflict (overlaps a committed window on a shared host or
  /// oversubscribes the link).  No simulated time passes.  The booking's
  /// quota share frees when the owning run completes or the ticket is
  /// cancelled; the window itself blocks foreign placement until `end`.
  common::Expected<ReservationTicket> reserve(const Session& session,
                                              const ReservationRequest& request);

  /// Cancel a committed window.  kNotFound for an unknown/spent ticket,
  /// kPermissionDenied when the session user does not own the booking.
  common::Status cancel_reservation(const Session& session,
                                    ReservationTicket ticket);

  /// The committed window behind a ticket (null after cancel).  For tests
  /// and tooling; the scheduler reads the same table.
  [[nodiscard]] const sched::Window* reservation_window(
      ReservationTicket ticket) const;

  // --- the application pipeline -------------------------------------------
  /// Distributed scheduling only (Fig. 2 over the fabric); synchronous in
  /// simulated time.
  common::Expected<sched::ResourceAllocationTable> schedule(
      const afg::Afg& graph, const Session& session,
      sched::SchedulingPolicy options = {});

  /// Full pipeline: schedule, distribute, execute, report.  Implemented as
  /// submit_application() + wait(), so a solo run takes exactly the same
  /// simulated path as a single-submission fleet (tests/test_tenancy.cpp
  /// proves the equivalence differentially).
  common::Expected<runtime::ExecutionReport> run_application(
      const afg::Afg& graph, const Session& session, RunOptions options = {});

  // --- multi-tenant asynchronous submission (docs/TENANCY.md) -------------
  /// Enter a submission into the admission queue and return immediately (no
  /// simulated time passes).  Typed rejections: kQuotaExceeded (user quota
  /// or queue bound), kNotFound (unknown user or task), kInvalidArgument /
  /// kCycleDetected (malformed graph).  The pipeline advances whenever the
  /// engine runs — wait(), drain(), or run_for().
  common::Expected<AppHandle> submit_application(const afg::Afg& graph,
                                                 const Session& session,
                                                 RunOptions options = {});

  /// Drive simulated time until `handle`'s submission is terminal; returns
  /// its ExecutionReport (or the schedule/admission error that stopped it).
  /// Idempotent — a second wait() on a finished handle returns the same
  /// result without advancing time.
  common::Expected<runtime::ExecutionReport> wait(AppHandle handle);

  /// Drive simulated time until every submission is terminal.  Results stay
  /// available through wait()/report().
  common::Status drain();

  /// Non-blocking result fetch: the report if `handle` is terminal,
  /// kInvalidArgument if it is still in flight, kNotFound for an unknown
  /// handle.
  [[nodiscard]] common::Expected<runtime::ExecutionReport> report(
      AppHandle handle) const;

  /// Pipeline position of a submission.
  [[nodiscard]] common::Expected<AppState> app_state(AppHandle handle) const;

  /// Admission-control counters (submissions, rejections, deferrals, peaks).
  [[nodiscard]] const tenancy::TenancyStats& tenancy_stats() const noexcept {
    return admission_.stats();
  }
  /// Submissions accepted but not yet terminal.
  [[nodiscard]] std::size_t in_flight_submissions() const noexcept {
    return active_submissions_;
  }

  /// Execute a graph with an externally supplied allocation table (used by
  /// benches comparing schedulers on identical runtimes).
  common::Expected<runtime::ExecutionReport> execute_with_table(
      const afg::Afg& graph, sched::ResourceAllocationTable table,
      const Session& session, RunOptions options = {});

  /// Advance simulated time (lets monitoring history accumulate, load
  /// dynamics play out, measured task times build up).
  void run_for(common::SimDuration duration);

  [[nodiscard]] common::SimTime now() const noexcept { return engine_.now(); }

  /// Build the grid described by `spec.grid`, pre-size the event heap for
  /// its daemon population, bring the environment up, and create the admin
  /// account.  Returns the live environment (heap-allocated — the
  /// environment is not movable) or the first error.
  [[nodiscard]] static common::Expected<std::unique_ptr<VdceEnvironment>>
  make_scale_environment(const ScaleSpec& spec);

 private:
  /// Per-task artifacts an execution needs, resolved from the session
  /// site's databases, the kernel registry, and the user object store.
  struct ResolvedApp {
    std::vector<db::TaskPerfRecord> perf;
    std::vector<tasklib::Kernel> kernels;
    std::unordered_map<std::uint32_t, std::unordered_map<int, tasklib::Value>>
        initial;
  };
  common::Expected<ResolvedApp> resolve_app_resources(const afg::Afg& graph,
                                                      const Session& session,
                                                      const RunOptions& options);

  /// One asynchronous submission moving through the pipeline.  Slots are
  /// heap-allocated and never erased, so `terminal` is a stable flag
  /// drive_until() can watch and results stay queryable after completion.
  struct SubmissionSlot {
    AppHandle handle;
    Session session;
    std::shared_ptr<const afg::Afg> graph;
    RunOptions options;
    AppState state = AppState::kQueued;
    common::SimTime enqueued = 0;
    common::SimTime admitted = 0;
    /// When scheduling actually began: the reservation window's start for a
    /// parked submission, == admitted otherwise (docs/RESERVATIONS.md).
    common::SimTime released = 0;
    common::SimDuration scheduling_time = 0;
    common::AppId sched_app;  ///< id of the latest scheduling round
    common::AppId exec_app;   ///< id of the execution (valid once executing)
    common::Expected<runtime::ExecutionReport> result =
        common::Error{common::ErrorCode::kInternal, "submission in flight"};
    bool terminal = false;
  };

  /// Admit queued submissions while the controller allows, issuing their
  /// scheduling rounds.  Runs at submit time and after every completion.
  /// Admitted submissions carrying a reservation ticket whose window has
  /// not opened yet park in AppState::kReserved instead; a timer fires
  /// release_reserved() at the window start.
  void pump_submissions();
  /// Start (or restart, after a deferral) slot's Fig. 2 scheduling round,
  /// binding its reservation booking to the round's AppId first so the site
  /// schedulers can recognise the owner.
  void begin_scheduling(SubmissionSlot& slot);
  /// Window-start timer: un-park a reserved submission and schedule it.
  void release_reserved(std::uint64_t handle);
  void on_scheduled(std::uint64_t handle,
                    common::Expected<sched::ResourceAllocationTable> table);
  void on_executed(std::uint64_t handle, runtime::ExecutionReport report);
  void finalize_submission(SubmissionSlot& slot,
                           common::Expected<runtime::ExecutionReport> result);

  /// Drive the engine in small steps until `done()` holds; fails when the
  /// engine drains first or the sync timeout elapses.
  template <class Done>
  common::Status drive_until(Done done);

  /// Post-mortem: dump the flight-recorder ring to
  /// EnvironmentOptions::flight.postmortem_path (no-op when the recorder is
  /// disabled, empty, or the path is empty).
  void dump_postmortem();

  /// Up-front validation: every task name in the graph must resolve against
  /// the session site's task library or the kernel registry, so a typo'd
  /// task fails here with its name instead of deep inside the runtime.
  common::Status validate_tasks(const afg::Afg& graph, const Session& session);

  // --- health plane (EnvironmentOptions::health) ----------------------------
  /// Install rules and pre-register every series in deterministic topology
  /// order.  Runs before the daemons start so their cached series lookups
  /// find stable, pre-created rings.  No-op when the plane is disabled.
  void setup_health_plane();
  /// Cadence tick: send inter-site probes, sample the control-plane series,
  /// and evaluate every rule.
  void health_tick();
  /// HostAgent extension: answer health.probe, fold health.probe_reply into
  /// the link.rtt series.  Returns true when the message was consumed.
  bool handle_health_message(const net::Message& message);

  net::Topology topology_;
  EnvironmentOptions options_;
  obs::Observability obs_;
  sim::Engine engine_;
  net::Fabric fabric_;
  tasklib::TaskRegistry registry_;
  runtime::ObjectStore store_;
  std::vector<std::unique_ptr<db::SiteRepository>> repos_;
  std::unique_ptr<runtime::RuntimeCore> core_;
  std::vector<std::unique_ptr<runtime::HostAgent>> agents_;
  std::unique_ptr<runtime::BackgroundLoadGenerator> load_generator_;
  std::unique_ptr<dsm::DsmRuntime> dsm_;
  std::unique_ptr<chaos::ChaosInjector> chaos_;
  bool up_ = false;
  common::AppId::value_type next_app_ = 0;

  // --- health plane state ---------------------------------------------------
  sim::TimerHandle health_timer_;
  std::uint64_t probe_seq_ = 0;
  /// Cached control-plane series (null when the plane is off or the series
  /// cap was hit; HealthPlane::observe(nullptr, ...) is a no-op).
  obs::health::TimeSeries* queue_series_ = nullptr;
  obs::health::TimeSeries* sched_series_ = nullptr;
  obs::health::TimeSeries* events_series_ = nullptr;
  /// link.rtt series of site pair (a < b) at a * site_count + b.
  std::vector<obs::health::TimeSeries*> link_series_;

  // --- multi-tenant submission pipeline (docs/TENANCY.md) -----------------
  tenancy::AdmissionController admission_;
  std::unordered_map<std::uint64_t, std::unique_ptr<SubmissionSlot>> slots_;
  std::uint64_t next_handle_ = 0;
  std::size_t active_submissions_ = 0;
};

}  // namespace vdce
