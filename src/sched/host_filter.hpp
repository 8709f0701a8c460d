// HostFilter — which hosts one placement may use (docs/TENANCY.md,
// docs/RESERVATIONS.md).
//
// The site scheduler places work only inside the user's access domain
// (§3).  The tenancy and reservation planes add two limits: a machine held
// by another in-flight application is unavailable, and so is a machine
// inside a foreign committed window; the owner of a booking places inside
// its own window's machines.  Every placement asks this one filter: the
// VDCE rows (assign_with_outputs), every offline row (PlannerView drops
// the hosts it rejects from the gathered bids) and recovery re-placement
// (SiteManager::reschedule_task, which builds it without the own booking
// and with backfill off).  With no foreign holders and no committed
// windows it admits every host at the cost of one branch, so solo runs are
// bit-identical to the reservation-free scheduler (tests/golden/).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched/policy.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

/// The candidate site set of Fig. 2 steps 1-2: the local site plus its k
/// nearest neighbours, clipped by the user's access domain.
std::vector<common::SiteId> candidate_site_set(
    const SchedulerContext& context, const SchedulingPolicy& options);

/// Built once per placement from the context (reservation plane, placing
/// application, its booking, clock) and the resolved policy (access
/// domain, backfill), both of which must outlive it.  Counts rejections by
/// reason: held by another application, or blocked by a window.
class HostFilter {
 public:
  HostFilter(const SchedulerContext& context, const SchedulingPolicy& policy);

  /// True when `host` may run work finishing `finish_rel` seconds after
  /// the context's clock; negative means unknown, and then no pending
  /// foreign window can be backfilled.
  bool admits(common::HostId host, double finish_rel = -1.0) {
    if (!active_) return true;
    return unheld(host) && window_admits(host, finish_rel);
  }

  /// The two stages of admits(), for a caller that computes the finish
  /// estimate only for hosts no other application holds.
  bool unheld(common::HostId host) {
    if (!held(host)) return true;
    ++held_rejections_;
    return false;
  }
  bool window_admits(common::HostId host, double finish_rel);

  /// Whether another application holds `host`, without counting (a probe
  /// of a site's bid, not a skipped candidate).
  [[nodiscard]] bool held(common::HostId host) const {
    return any_other_ && context_.reservations->reserved_by_other(
                             host, context_.reserving_app);
  }

  /// Whether committed windows exist: then window_admits() reads the
  /// finish estimate of every host it is asked about.
  [[nodiscard]] bool has_windows() const noexcept { return windows_ != nullptr; }

  [[nodiscard]] std::size_t held_rejections() const noexcept {
    return held_rejections_;
  }
  [[nodiscard]] std::size_t window_rejections() const noexcept {
    return window_rejections_;
  }

  /// Appended to a "no machine" error: held by concurrent applications,
  /// blocked by committed windows, or "".
  [[nodiscard]] std::string why_none() const;

 private:
  const SchedulerContext& context_;
  const SchedulingPolicy& policy_;
  bool any_other_;
  const WindowTable* windows_;  ///< null unless windows are committed
  const Window* own_;           ///< the placing app's booking, or null
  bool active_;
  std::size_t held_rejections_ = 0;
  std::size_t window_rejections_ = 0;
};

}  // namespace vdce::sched
