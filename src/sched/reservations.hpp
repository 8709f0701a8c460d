// Host reservations for multi-tenant co-scheduling (docs/TENANCY.md) and
// advance reservations over time-windowed resources (docs/RESERVATIONS.md).
//
// Two layers share this file:
//
//  * ReservationTable — the instantaneous host -> app holder map.  The
//    prototype's execution model is host-exclusive: a machine runs one
//    VDCE task at a time, and the daemons on it coordinate one
//    application's plan.  When several applications are in flight
//    concurrently, the scheduler must therefore never hand the same
//    machine to two of them — the classic grid double-booking bug.  This
//    table is the shared source of truth: the coordinator acquires every
//    host of an application's resource allocation table when execution
//    starts (plus any host a recovery re-placement adds), and releases
//    them all when the application completes.  Every placement — the VDCE
//    rows, every offline row and recovery re-placement — consults the
//    table through one sched::HostFilter (sched/host_filter.hpp) and skips
//    machines held by *other* applications.
//
//  * WindowTable — the time-indexed generalisation (ROADMAP item 2,
//    modelled on the Prajapati & Shah advance-reservation simulator,
//    arXiv:1211.1447).  A booking commits `[start, end)` windows of host
//    capacity (optionally a link-bandwidth fraction) ahead of time; every
//    placement (through the same HostFilter) goes *around* committed
//    windows for non-owners, and the VDCE rows' conservative-backfill pass
//    fills the gaps — a backfilled application may never delay a committed
//    window's start.  Booking ids are issued in commit order, so every tie
//    resolves deterministically by (user, seq).  The instantaneous table is
//    the degenerate zero-window case: with no bookings every WindowTable
//    query is a constant-false no-op and every code path behaves
//    bit-identically to the pre-window scheduler (tests/golden/, checked by
//    test_golden).
//
// With a single application in flight the instantaneous table never
// reports a conflict, so every code path that consults it behaves
// bit-identically to the pre-tenancy scheduler (tests/test_tenancy.cpp
// proves this differentially).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace vdce::sched {

class ReservationTable {
 public:
  /// Reserve `hosts` for `app`.  Hosts already held by the same app are
  /// ignored (idempotent — recovery re-acquires freely); hosts held by a
  /// *different* app are counted in conflicts() and left with their current
  /// holder (callers filter reserved hosts before choosing, so a conflict
  /// here means a caller bypassed the filter).
  void acquire(common::AppId app, const std::vector<common::HostId>& hosts);

  /// Release every host held by `app`.  No-op for unknown apps.
  void release(common::AppId app);

  /// The app holding `host`, or an invalid id when the host is free.
  [[nodiscard]] common::AppId holder(common::HostId host) const;

  /// True when `host` is held by an application other than `app`.
  [[nodiscard]] bool reserved_by_other(common::HostId host,
                                       common::AppId app) const;

  /// True when any host is held by an application other than `app` — the
  /// signal the tenancy layer uses to distinguish "infeasible because
  /// concurrent applications occupy the candidates" (defer and retry) from
  /// "infeasible outright" (fail).
  [[nodiscard]] bool any_other(common::AppId app) const;

  /// Hosts currently held by `app`, in ascending host-id order (empty if
  /// none).  The order is part of the contract: callers iterate the result
  /// to acquire, log, and re-rank, and an unspecified order here was a
  /// latent nondeterminism trap for the window generalisation
  /// (tests/test_reservations.cpp asserts it).
  [[nodiscard]] std::vector<common::HostId> hosts_of(common::AppId app) const;

  /// Attempts to acquire a host already held by a different app.
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> holder_;  ///< host -> app
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_app_;
  std::uint64_t conflicts_ = 0;
};

// ---------------------------------------------------------------------------
// Time-windowed advance reservations (docs/RESERVATIONS.md)
// ---------------------------------------------------------------------------

/// One committed capacity window.  Hosts are exclusive for `[start, end)`;
/// the optional link window reserves a bandwidth fraction of one directed
/// fabric link for the same interval.
struct Window {
  std::uint64_t id = 0;              ///< booking id, issued in commit order
  std::string user;                  ///< committing account (tie-break key)
  common::SimTime start = 0.0;
  common::SimTime end = 0.0;
  std::vector<common::HostId> hosts; ///< ascending host-id order
  /// Optional directed link-bandwidth window: reserve `link_fraction` of
  /// the src->dst link's capacity for [start, end).  Fraction 0 (default)
  /// books no link.  Overlapping link windows conflict when their fractions
  /// sum past 1.0.
  common::HostId link_src;
  common::HostId link_dst;
  double link_fraction = 0.0;
  /// Application currently scheduled/executing under this booking (invalid
  /// until the owner's submission is released into scheduling).
  common::AppId owner_app;
  /// Incremented each time a host of this window was re-placed after a
  /// crash (chaos interaction; docs/RESERVATIONS.md).
  int displacements = 0;

  [[nodiscard]] bool contains_host(common::HostId h) const;
  /// True when the window's interval intersects [s, e).
  [[nodiscard]] bool overlaps(common::SimTime s, common::SimTime e) const {
    return start < e && s < end;
  }
};

/// The time-indexed reservation plane.  Extends the instantaneous table —
/// which keeps its exact pre-window behaviour — with committed `[start,
/// end)` windows.  RuntimeCore owns one WindowTable shared by every site
/// coordinator; VdceEnvironment::reserve() is the only committer.
///
/// Determinism: booking ids are a monotone sequence issued in commit
/// order, windows_of() returns (start, id)-sorted snapshots, and
/// displacement picks the lowest-id feasible replacement host — no
/// iteration order ever depends on hashing.
class WindowTable : public ReservationTable {
 public:
  /// Commit a window.  Fails with kReservationConflict when any requested
  /// host already has a committed window intersecting [start, end), or the
  /// requested link fraction oversubscribes the link within the interval.
  /// Interval and host validity are the caller's job (the environment
  /// validates against the topology and the clock and reports kNotFound /
  /// kInvalidArgument there).  First committed wins; later conflicting
  /// requests are rejected, counted in window_conflicts().
  common::Expected<std::uint64_t> book(Window window);

  /// Remove a booking (frees its hosts/link for the whole interval).
  /// kNotFound for unknown ids.
  common::Status cancel(std::uint64_t booking);

  /// The committed window for `booking`, or null.
  [[nodiscard]] const Window* window(std::uint64_t booking) const;

  /// Bind the application currently scheduled/executing under `booking`
  /// (invalid AppId unbinds).  The scheduler uses the binding to recognise
  /// the owner: the owner places *inside* its window's hosts, everyone
  /// else places around them.
  void bind_owner(std::uint64_t booking, common::AppId app);

  /// The booking `app` is currently bound to, or 0.
  [[nodiscard]] std::uint64_t booking_of(common::AppId app) const;

  /// Windows touching `host` with end > `after`, sorted by (start, id).
  [[nodiscard]] std::vector<const Window*> windows_of(
      common::HostId host, common::SimTime after = 0.0) const;

  /// True when a *foreign* (not owned by `app`) committed window makes
  /// `host` inadmissible at time `now` for an application expected to
  /// occupy it until `est_finish`:
  ///   * a foreign window is active (start <= now < end), or
  ///   * `backfill` is off and any foreign window is still pending, or
  ///   * the occupancy estimate is unknown (`est_finish` < 0 — conservative
  ///     backfill cannot prove safety without a duration), or
  ///   * `est_finish` crosses the next pending foreign window's start.
  /// With zero windows this is a constant-false single branch.
  [[nodiscard]] bool window_blocked(common::HostId host, common::AppId app,
                                    common::SimTime now,
                                    common::SimTime est_finish,
                                    bool backfill) const;

  /// Start of the earliest foreign pending window on `host` after `now`,
  /// or a negative value when none exists.
  [[nodiscard]] common::SimTime next_foreign_start(common::HostId host,
                                                   common::AppId app,
                                                   common::SimTime now) const;

  /// Crash recovery: re-place `host` out of every committed window that has
  /// not ended by `now`.  For each affected window the lowest-id host from
  /// `candidates` that is not already in the window and has no conflicting
  /// committed window over the interval replaces the dead one; when no
  /// candidate fits, the dead host is simply dropped from the window
  /// (degraded capacity beats a booking pinned to a corpse).  Returns the
  /// ids of every displaced booking, ascending.
  std::vector<std::uint64_t> displace_host(
      common::HostId host, common::SimTime now,
      const std::vector<common::HostId>& candidates);

  /// Committed windows with end > `now` (0 counts everything ever booked
  /// and not cancelled).
  [[nodiscard]] std::size_t window_count(common::SimTime now = 0.0) const;
  /// book() calls rejected for overlapping a committed window.
  [[nodiscard]] std::uint64_t window_conflicts() const noexcept {
    return window_conflicts_;
  }
  [[nodiscard]] bool has_windows() const noexcept { return !windows_.empty(); }

 private:
  [[nodiscard]] bool host_conflicts(const Window& w) const;
  [[nodiscard]] bool link_conflicts(const Window& w) const;

  std::vector<Window> windows_;  ///< ascending id order (commit order)
  std::uint64_t next_booking_ = 1;
  std::uint64_t window_conflicts_ = 0;
};

}  // namespace vdce::sched
