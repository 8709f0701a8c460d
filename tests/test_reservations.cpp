// vdce::sched — advance reservations and conservative backfill
// (docs/RESERVATIONS.md): WindowTable booking/conflict/cancel units, the
// conservative-backfill admissibility predicate, crash-displacement
// re-placement, typed environment-level rejections (reserve(), ticket
// redemption, booking quotas), the end-to-end parked-submission pipeline
// with its exactly-tiled reservation phase, the no-delay invariant (a
// backfilled app never moves a committed window's start), and booking-order
// determinism under seed replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "editor/builder.hpp"
#include "sched/reservations.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

using common::AppId;
using common::HostId;

// --- ReservationTable (the instantaneous degenerate case) -------------------

TEST(ReservationTable, HostsOfReturnsAscendingHostIds) {
  sched::ReservationTable table;
  table.acquire(AppId(1), {HostId(5), HostId(1), HostId(9), HostId(3)});
  const std::vector<HostId> hosts = table.hosts_of(AppId(1));
  ASSERT_EQ(hosts.size(), 4u);
  // The ascending order is part of the documented contract now — recovery
  // and the window displacement path both rely on it being stable.
  EXPECT_TRUE(std::is_sorted(hosts.begin(), hosts.end()));
  EXPECT_EQ(hosts.front(), HostId(1));
  EXPECT_EQ(hosts.back(), HostId(9));
}

// --- WindowTable units ------------------------------------------------------

sched::Window make_window(double start, double end,
                          std::vector<HostId> hosts,
                          const std::string& user = "u") {
  sched::Window w;
  w.user = user;
  w.start = start;
  w.end = end;
  w.hosts = std::move(hosts);
  return w;
}

TEST(WindowTable, BookSortsHostsAndAssignsSequentialIds) {
  sched::WindowTable table;
  EXPECT_FALSE(table.has_windows());
  auto a = table.book(make_window(0.0, 10.0, {HostId(4), HostId(1), HostId(4)}));
  ASSERT_TRUE(a.has_value());
  auto b = table.book(make_window(20.0, 30.0, {HostId(1)}));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, *a + 1);  // booking ids are sequential, replay-stable
  EXPECT_TRUE(table.has_windows());
  EXPECT_EQ(table.window_count(), 2u);

  const sched::Window* w = table.window(*a);
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->hosts.size(), 2u);  // duplicates collapsed
  EXPECT_EQ(w->hosts[0], HostId(1));
  EXPECT_EQ(w->hosts[1], HostId(4));
  EXPECT_TRUE(w->contains_host(HostId(4)));
  EXPECT_FALSE(w->contains_host(HostId(2)));
}

TEST(WindowTable, OverlappingCommittedWindowIsTypedConflict) {
  sched::WindowTable table;
  ASSERT_TRUE(table.book(make_window(10.0, 20.0, {HostId(1), HostId(2)}))
                  .has_value());

  // Overlap on a shared host: typed kReservationConflict.
  auto clash = table.book(make_window(15.0, 25.0, {HostId(2)}));
  ASSERT_FALSE(clash.has_value());
  EXPECT_EQ(clash.error().code, common::ErrorCode::kReservationConflict);
  EXPECT_EQ(table.window_conflicts(), 1u);

  // Adjacent ([20, 30) after [10, 20)) and disjoint-host windows are fine.
  EXPECT_TRUE(table.book(make_window(20.0, 30.0, {HostId(2)})).has_value());
  EXPECT_TRUE(table.book(make_window(12.0, 18.0, {HostId(3)})).has_value());
  EXPECT_EQ(table.window_conflicts(), 1u);
}

TEST(WindowTable, CancelFreesTheInterval) {
  sched::WindowTable table;
  auto a = table.book(make_window(0.0, 10.0, {HostId(1)}));
  ASSERT_TRUE(a.has_value());
  auto clash = table.book(make_window(5.0, 15.0, {HostId(1)}));
  ASSERT_FALSE(clash.has_value());

  EXPECT_TRUE(table.cancel(*a).ok());
  EXPECT_EQ(table.window(*a), nullptr);
  EXPECT_FALSE(table.has_windows());
  auto unknown = table.cancel(*a);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, common::ErrorCode::kNotFound);

  // The freed interval books again.
  EXPECT_TRUE(table.book(make_window(5.0, 15.0, {HostId(1)})).has_value());
}

TEST(WindowTable, LinkWindowsShareCapacityUpToOne) {
  auto link_window = [](double start, double end, HostId src, HostId dst,
                        double fraction) {
    sched::Window w;
    w.user = "u";
    w.start = start;
    w.end = end;
    w.link_src = src;
    w.link_dst = dst;
    w.link_fraction = fraction;
    return w;
  };
  sched::WindowTable table;
  ASSERT_TRUE(
      table.book(link_window(0.0, 10.0, HostId(0), HostId(1), 0.6)).has_value());
  // Same directed link, overlapping, 0.6 + 0.5 > 1: conflict.
  auto over = table.book(link_window(5.0, 15.0, HostId(0), HostId(1), 0.5));
  ASSERT_FALSE(over.has_value());
  EXPECT_EQ(over.error().code, common::ErrorCode::kReservationConflict);
  // 0.6 + 0.4 fits; the reverse direction is a different resource.
  EXPECT_TRUE(
      table.book(link_window(5.0, 15.0, HostId(0), HostId(1), 0.4)).has_value());
  EXPECT_TRUE(
      table.book(link_window(0.0, 10.0, HostId(1), HostId(0), 0.9)).has_value());
}

TEST(WindowTable, WindowBlockedImplementsConservativeBackfill) {
  sched::WindowTable table;
  auto booking = table.book(make_window(10.0, 20.0, {HostId(2)}));
  ASSERT_TRUE(booking.has_value());
  table.bind_owner(*booking, AppId(7));
  const AppId foreign = AppId(3);

  // Active window always blocks a foreign app.
  EXPECT_TRUE(table.window_blocked(HostId(2), foreign, 12.0, 13.0, true));
  // Pending window: blocked with backfill off, with an unknown duration, or
  // when the guarded finish estimate lands past the committed start.
  EXPECT_TRUE(table.window_blocked(HostId(2), foreign, 5.0, 9.0, false));
  EXPECT_TRUE(table.window_blocked(HostId(2), foreign, 5.0, -1.0, true));
  EXPECT_TRUE(table.window_blocked(HostId(2), foreign, 5.0, 11.0, true));
  // Provably-safe backfill: finishes before the window opens.
  EXPECT_FALSE(table.window_blocked(HostId(2), foreign, 5.0, 9.0, true));
  // The owner is never blocked by its own window; unrelated hosts and
  // expired windows never block anyone.
  EXPECT_FALSE(table.window_blocked(HostId(2), AppId(7), 12.0, -1.0, false));
  EXPECT_FALSE(table.window_blocked(HostId(3), foreign, 12.0, -1.0, false));
  EXPECT_FALSE(table.window_blocked(HostId(2), foreign, 25.0, -1.0, false));

  EXPECT_EQ(table.next_foreign_start(HostId(2), foreign, 5.0), 10.0);
  EXPECT_EQ(table.next_foreign_start(HostId(2), AppId(7), 5.0), -1.0);
}

TEST(WindowTable, WindowsOfSortsByStartAndSkipsExpired) {
  sched::WindowTable table;
  ASSERT_TRUE(table.book(make_window(30.0, 40.0, {HostId(1)})).has_value());
  ASSERT_TRUE(table.book(make_window(0.0, 5.0, {HostId(1)})).has_value());
  ASSERT_TRUE(table.book(make_window(10.0, 20.0, {HostId(1)})).has_value());

  const auto all = table.windows_of(HostId(1));
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->start, 0.0);
  EXPECT_EQ(all[1]->start, 10.0);
  EXPECT_EQ(all[2]->start, 30.0);

  const auto live = table.windows_of(HostId(1), 7.0);  // [0, 5) is over
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0]->start, 10.0);
  EXPECT_EQ(table.window_count(7.0), 2u);
}

TEST(WindowTable, DisplaceHostSubstitutesLowestSafeCandidate) {
  sched::WindowTable table;
  auto a = table.book(make_window(0.0, 10.0, {HostId(1), HostId(2)}));
  ASSERT_TRUE(a.has_value());
  auto b = table.book(make_window(5.0, 15.0, {HostId(3)}));
  ASSERT_TRUE(b.has_value());

  // Host 2 dies at t=1.  Candidate 1 is already in the window, candidate 3
  // would collide with the overlapping window b, so 4 substitutes.
  const std::vector<std::uint64_t> displaced = table.displace_host(
      HostId(2), 1.0, {HostId(5), HostId(4), HostId(3), HostId(1)});
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0], *a);

  const sched::Window* w = table.window(*a);
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->hosts.size(), 2u);
  EXPECT_EQ(w->hosts[0], HostId(1));
  EXPECT_EQ(w->hosts[1], HostId(4));
  EXPECT_EQ(w->displacements, 1);
  // Idempotent: the dead host is no longer in any window.
  EXPECT_TRUE(table.displace_host(HostId(2), 1.0, {HostId(4)}).empty());
}

// --- environment API: typed rejections --------------------------------------

afg::Afg tiny_app(const std::string& name) {
  editor::AppBuilder app(name);
  auto a = app.task("a", "synthetic.w300").output_data(1e4);
  auto b = app.task("b", "synthetic.w200");
  EXPECT_TRUE(app.link(a, b).has_value());
  return app.build().value();
}

EnvironmentOptions quiet_options() {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  return options;
}

ReservationRequest request_for(std::vector<HostId> hosts, double start,
                               double end) {
  ReservationRequest request;
  request.hosts = std::move(hosts);
  request.start = start;
  request.end = end;
  return request;
}

TEST(ReservationApi, ReserveValidatesArgumentsTyped) {
  VdceEnvironment env(make_campus_pair(5), quiet_options());
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();
  env.run_for(2.0);

  auto empty = env.reserve(session, request_for({}, 5.0, 10.0));
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, common::ErrorCode::kInvalidArgument);

  auto inverted = env.reserve(session, request_for({HostId(1)}, 10.0, 5.0));
  ASSERT_FALSE(inverted.has_value());
  EXPECT_EQ(inverted.error().code, common::ErrorCode::kInvalidArgument);

  auto past = env.reserve(session, request_for({HostId(1)}, 1.0, 5.0));
  ASSERT_FALSE(past.has_value());
  EXPECT_EQ(past.error().code, common::ErrorCode::kInvalidArgument);

  auto ghost_host = env.reserve(session, request_for({HostId(999)}, 5.0, 10.0));
  ASSERT_FALSE(ghost_host.has_value());
  EXPECT_EQ(ghost_host.error().code, common::ErrorCode::kNotFound);
  EXPECT_NE(ghost_host.error().message.find("999"), std::string::npos);

  ReservationRequest link = request_for({HostId(1)}, 5.0, 10.0);
  link.link_src = HostId(0);
  link.link_dst = HostId(1);
  link.link_fraction = 1.5;
  auto oversub = env.reserve(session, link);
  ASSERT_FALSE(oversub.has_value());
  EXPECT_EQ(oversub.error().code, common::ErrorCode::kInvalidArgument);
}

TEST(ReservationApi, ConflictQuotaAndCancelAreTyped) {
  EnvironmentOptions options = quiet_options();
  options.tenancy.max_reservations_per_user = 1;
  VdceEnvironment env(make_campus_pair(5), options);
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  ASSERT_TRUE(env.try_add_user("rival", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();
  Session rival = env.login(common::SiteId(0), "rival", "p").value();

  auto ticket = env.reserve(session, request_for({HostId(1), HostId(2)},
                                                 10.0, 20.0));
  ASSERT_TRUE(ticket.has_value()) << ticket.error().to_string();
  EXPECT_TRUE(ticket->valid());
  ASSERT_NE(env.reservation_window(*ticket), nullptr);
  EXPECT_EQ(env.reservation_window(*ticket)->user, "u");

  // Overlap on a booked host: kReservationConflict, with the interval named.
  auto clash = env.reserve(rival, request_for({HostId(2)}, 15.0, 25.0));
  ASSERT_FALSE(clash.has_value());
  EXPECT_EQ(clash.error().code, common::ErrorCode::kReservationConflict);

  // Second booking for the same user: the reservation quota says no.
  auto quota = env.reserve(session, request_for({HostId(3)}, 10.0, 20.0));
  ASSERT_FALSE(quota.has_value());
  EXPECT_EQ(quota.error().code, common::ErrorCode::kQuotaExceeded);
  EXPECT_EQ(env.tenancy_stats().reservations_rejected, 1u);

  // Only the owner can cancel; unknown tickets are kNotFound.
  auto foreign_cancel = env.cancel_reservation(rival, *ticket);
  ASSERT_FALSE(foreign_cancel.ok());
  EXPECT_EQ(foreign_cancel.error().code, common::ErrorCode::kPermissionDenied);
  EXPECT_EQ(env.cancel_reservation(session, ReservationTicket{999}).error().code,
            common::ErrorCode::kNotFound);

  // Cancelling frees both the interval and the quota share.
  ASSERT_TRUE(env.cancel_reservation(session, *ticket).ok());
  EXPECT_EQ(env.reservation_window(*ticket), nullptr);
  EXPECT_TRUE(env.reserve(session, request_for({HostId(3)}, 10.0, 20.0))
                  .has_value());
}

TEST(ReservationApi, SubmitValidatesTheTicket) {
  VdceEnvironment env(make_campus_pair(5), quiet_options());
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  ASSERT_TRUE(env.try_add_user("rival", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();
  Session rival = env.login(common::SiteId(0), "rival", "p").value();

  RunOptions run;
  run.reservation = ReservationTicket{42};  // never issued
  auto unknown = env.submit_application(tiny_app("a"), session, run);
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, common::ErrorCode::kNotFound);

  auto ticket = env.reserve(session, request_for({HostId(1)}, 1.0, 2.0));
  ASSERT_TRUE(ticket.has_value());

  // Someone else's ticket is a permission problem, not a scheduling one.
  RunOptions stolen;
  stolen.reservation = *ticket;
  auto forged = env.submit_application(tiny_app("b"), rival, stolen);
  ASSERT_FALSE(forged.has_value());
  EXPECT_EQ(forged.error().code, common::ErrorCode::kPermissionDenied);

  // A window that has already closed cannot be redeemed.
  env.run_for(3.0);
  auto late = env.submit_application(tiny_app("c"), session, stolen);
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error().code, common::ErrorCode::kInvalidArgument);
}

// --- end-to-end: the parked submission and its phase ------------------------

TEST(ReservationPipeline, ParksUntilWindowOpensWithExactPhaseTiling) {
  EnvironmentOptions options = quiet_options();
  options.trace.enabled = true;
  VdceEnvironment env(make_campus_pair(5), options);
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("u", "p").ok());
  Session session = env.login(common::SiteId(0), "u", "p").value();

  const std::vector<HostId> booked{HostId(1), HostId(2), HostId(3)};
  const double kOpens = 5.0;
  auto ticket = env.reserve(session, request_for(booked, kOpens, 500.0));
  ASSERT_TRUE(ticket.has_value()) << ticket.error().to_string();

  RunOptions run;
  run.real_kernels = false;
  run.reservation = *ticket;
  auto handle = env.submit_application(tiny_app("reserved"), session, run);
  ASSERT_TRUE(handle.has_value()) << handle.error().to_string();
  EXPECT_EQ(env.app_state(*handle).value(), AppState::kReserved);

  auto report = env.wait(*handle);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  ASSERT_TRUE(report->success) << report->failure_reason;

  // The submission parked from admission (t=0) to exactly the window start.
  EXPECT_EQ(report->admitted, 0.0);
  EXPECT_EQ(report->released, kOpens);
  EXPECT_GE(report->exec_started, kOpens);

  // Placement never left the booked machines.
  for (const runtime::TaskOutcome& o : report->outcomes) {
    EXPECT_TRUE(std::find(booked.begin(), booked.end(), o.host) != booked.end())
        << "task on unbooked host " << o.host.value();
  }

  // The reservation phase tiles exactly into [enqueued, completed] alongside
  // contention, scheduling, setup, and execution.
  const runtime::ExecutionReport::PhaseBreakdown b = report->breakdown();
  EXPECT_DOUBLE_EQ(b.reservation, kOpens);
  EXPECT_DOUBLE_EQ(report->enqueued + b.contention, report->admitted);
  EXPECT_DOUBLE_EQ(report->admitted + b.reservation, report->released);
  EXPECT_DOUBLE_EQ(report->released + b.scheduling, report->submitted);
  EXPECT_DOUBLE_EQ(report->submitted + b.setup, report->exec_started);
  EXPECT_DOUBLE_EQ(report->exec_started + b.execution, report->completed);
  EXPECT_DOUBLE_EQ(b.total(), report->completed - report->enqueued);

  // The wait surfaces everywhere the contention phase does: the causal
  // view, the trace stream, and the report narrative.
  EXPECT_DOUBLE_EQ(report->causal_view().reservation(), kOpens);
  EXPECT_DOUBLE_EQ(report->critical_path().phases.reservation, kOpens);
  EXPECT_NE(env.trace().to_jsonl().find("app.reservation"), std::string::npos);
  EXPECT_NE(report->describe(tiny_app("reserved")).find("reservation wait"),
            std::string::npos);

  // The booking is spent by its run: the window is released and a cancel of
  // the spent ticket is a clean kNotFound.
  EXPECT_EQ(env.reservation_window(*ticket), nullptr);
  EXPECT_EQ(env.cancel_reservation(session, *ticket).error().code,
            common::ErrorCode::kNotFound);
}

// Every row honours the window: the default VDCE row, and the offline rows
// through PlannerView's host filter (sched/host_filter.hpp).
TEST(ReservationPipeline, PendingWindowBlocksForeignWorkWhenBackfillDisabled) {
  for (const char* strategy : {"", "heft", "dbc-time"}) {
    SCOPED_TRACE(std::string("strategy \"") + strategy + "\"");
    EnvironmentOptions options = quiet_options();
    VdceEnvironment env(make_campus_pair(5), options);
    env.bring_up();
    ASSERT_TRUE(env.try_add_user("owner", "p").ok());
    ASSERT_TRUE(env.try_add_user("walkin", "p").ok());
    Session owner = env.login(common::SiteId(0), "owner", "p").value();
    Session walkin = env.login(common::SiteId(0), "walkin", "p").value();

    // Book every machine: with backfill disabled, nothing foreign may start
    // ahead of the window, so the walk-in submission fails typed.
    std::vector<HostId> all;
    for (const net::Host& h : env.hosts()) all.push_back(h.id);
    auto ticket = env.reserve(owner, request_for(all, 50.0, 100.0));
    ASSERT_TRUE(ticket.has_value()) << ticket.error().to_string();

    RunOptions run;
    run.real_kernels = false;
    run.sched.strategy = strategy;
    run.sched.backfill = false;  // per-run knob, like run.sched.objective
    if (std::string(strategy) == "dbc-time") run.budget = 1e6;
    auto handle = env.submit_application(tiny_app("walkin"), walkin, run);
    ASSERT_TRUE(handle.has_value());
    auto report = env.wait(*handle);
    ASSERT_FALSE(report.has_value());
    EXPECT_EQ(report.error().code, common::ErrorCode::kNoFeasibleResource);
    EXPECT_NE(report.error().message.find("reservation"), std::string::npos)
        << report.error().message;
  }
}

// The no-delay invariant: with conservative backfill ON, foreign work may
// use booked machines ahead of the window only if it provably finishes
// first — so the reserved application still starts exactly on time.
TEST(ReservationPipeline, BackfillNeverDelaysTheCommittedWindowStart) {
  EnvironmentOptions options = quiet_options();
  options.trace.enabled = true;
  VdceEnvironment env(make_campus_pair(5), options);
  env.bring_up();
  ASSERT_TRUE(env.try_add_user("owner", "p").ok());
  ASSERT_TRUE(env.try_add_user("walkin", "p").ok());
  Session owner = env.login(common::SiteId(0), "owner", "p").value();
  Session walkin = env.login(common::SiteId(0), "walkin", "p").value();

  // Book every machine so the walk-in app has no choice but to backfill.
  std::vector<HostId> all;
  for (const net::Host& h : env.hosts()) all.push_back(h.id);
  const double kOpens = 60.0;
  auto ticket = env.reserve(owner, request_for(all, kOpens, 300.0));
  ASSERT_TRUE(ticket.has_value()) << ticket.error().to_string();

  RunOptions reserved_run;
  reserved_run.real_kernels = false;
  reserved_run.reservation = *ticket;
  auto reserved = env.submit_application(tiny_app("reserved"), owner,
                                         reserved_run);
  ASSERT_TRUE(reserved.has_value());

  RunOptions walkin_run;
  walkin_run.real_kernels = false;
  auto filler = env.submit_application(tiny_app("filler"), walkin, walkin_run);
  ASSERT_TRUE(filler.has_value());
  ASSERT_TRUE(env.drain().ok());

  auto filler_report = env.report(*filler);
  ASSERT_TRUE(filler_report.has_value());
  ASSERT_TRUE(filler_report->success) << filler_report->failure_reason;
  auto reserved_report = env.report(*reserved);
  ASSERT_TRUE(reserved_report.has_value());
  ASSERT_TRUE(reserved_report->success) << reserved_report->failure_reason;

  // The backfilled app ran entirely ahead of the window...
  for (const runtime::TaskOutcome& o : filler_report->outcomes) {
    EXPECT_LE(o.finished, kOpens)
        << "backfilled task outlived the committed window start";
  }
  // ...and the committed window opened exactly on time for its owner.
  EXPECT_EQ(reserved_report->released, kOpens);
  EXPECT_GE(reserved_report->exec_started, kOpens);
  for (const runtime::TaskOutcome& o : reserved_report->outcomes) {
    EXPECT_GE(o.started, kOpens);
  }
}

// --- determinism -------------------------------------------------------------

TEST(ReservationDeterminism, BookingAndBackfillReplayByteIdentically) {
  auto run_once = [] {
    EnvironmentOptions options;
    options.runtime.exec_noise_cv = 0.0;
    options.trace.enabled = true;
    VdceEnvironment env(make_campus_pair(11), options);
    env.bring_up();
    EXPECT_TRUE(env.try_add_user("owner", "p").ok());
    EXPECT_TRUE(env.try_add_user("walkin", "p").ok());
    Session owner = env.login(common::SiteId(0), "owner", "p").value();
    Session walkin = env.login(common::SiteId(0), "walkin", "p").value();

    auto ticket = env.reserve(
        owner, request_for({HostId(1), HostId(2), HostId(3)}, 40.0, 200.0));
    EXPECT_TRUE(ticket.has_value());
    RunOptions reserved_run;
    reserved_run.real_kernels = false;
    reserved_run.reservation = *ticket;
    EXPECT_TRUE(env.submit_application(tiny_app("reserved"), owner,
                                       reserved_run)
                    .has_value());
    RunOptions run;
    run.real_kernels = false;
    EXPECT_TRUE(env.submit_application(tiny_app("fill-a"), walkin, run)
                    .has_value());
    EXPECT_TRUE(env.submit_application(tiny_app("fill-b"), walkin, run)
                    .has_value());
    EXPECT_TRUE(env.drain().ok());
    return env.trace().to_jsonl();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace vdce
