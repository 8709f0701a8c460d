#include "sched/host_filter.hpp"

#include <algorithm>

namespace vdce::sched {

namespace {

/// Safety factor applied to a backfill candidate's predicted completion
/// before comparing it against the next committed window start: admissible
/// iff now + kBackfillGuard * (predicted finish - now) <= the window start.
/// Absorbs execution noise, setup lag, and load drift so the no-delay
/// invariant holds in practice (bench_reservations --check gates it).
constexpr double kBackfillGuard = 2.0;

}  // namespace

std::vector<common::SiteId> candidate_site_set(
    const SchedulerContext& context, const SchedulingPolicy& options) {
  std::vector<common::SiteId> sites{context.local_site};
  if (options.access != db::AccessDomain::kLocalSite) {
    std::size_t k = options.access == db::AccessDomain::kGlobal
                        ? context.k_nearest
                        : std::min(context.k_nearest, std::size_t{2});
    for (common::SiteId s :
         context.topology->nearest_sites(context.local_site, k)) {
      sites.push_back(s);
    }
  }
  return sites;
}

HostFilter::HostFilter(const SchedulerContext& context,
                       const SchedulingPolicy& policy)
    : context_(context),
      policy_(policy),
      any_other_(context.reservations != nullptr &&
                 context.reservations->any_other(context.reserving_app)),
      windows_(context.reservations != nullptr &&
                       context.reservations->has_windows()
                   ? context.reservations
                   : nullptr),
      own_(windows_ != nullptr && context.held_booking != 0
               ? windows_->window(context.held_booking)
               : nullptr),
      active_(any_other_ || windows_ != nullptr) {}

bool HostFilter::window_admits(common::HostId host, double finish_rel) {
  if (windows_ == nullptr) return true;
  // The owner of a committed booking schedules inside its window: only the
  // booked machines are admissible for it.
  const bool blocked =
      (own_ != nullptr && !own_->contains_host(host)) ||
      windows_->window_blocked(
          host, context_.reserving_app, context_.now,
          finish_rel < 0.0 ? -1.0 : context_.now + kBackfillGuard * finish_rel,
          policy_.backfill);
  if (blocked) ++window_rejections_;
  return !blocked;
}

std::string HostFilter::why_none() const {
  if (any_other_) return " (machines held by concurrent applications)";
  if (window_rejections_ > 0) {
    return " (machines blocked by committed reservation windows)";
  }
  return "";
}

}  // namespace vdce::sched
