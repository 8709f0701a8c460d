// Shared scheduler plumbing: the scheduling context (what every strategy
// may consult) and task-record resolution.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "afg/graph.hpp"
#include "common/expected.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "db/site_repository.hpp"
#include "econ/econ.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "predict/model.hpp"
#include "sched/reservations.hpp"
#include "sched/types.hpp"

namespace vdce::sched {

/// Everything a scheduling algorithm may read.  Repositories are indexed by
/// site id; every site in the topology must have one.  Algorithms consult
/// only the *database view* of resources — never topology ground truth —
/// because that is all a real Application Scheduler could see.
struct SchedulerContext {
  const net::Topology* topology = nullptr;
  std::vector<const db::SiteRepository*> repos;  ///< [site id] -> repository
  const predict::Predictor* predictor = nullptr;
  common::SiteId local_site;   ///< where the execution request arrived
  std::size_t k_nearest = 2;   ///< size of S_remote in Fig. 2, step 2

  /// Observability hooks (optional).  When set, the assignment phase feeds
  /// candidate counts and phase records; `now` stamps trace events with the
  /// caller's simulated time (0 for synchronous, out-of-simulation runs).
  obs::Observability* obs = nullptr;
  common::SimTime now = 0.0;

  /// The shared reservation plane (optional; docs/TENANCY.md,
  /// docs/RESERVATIONS.md), read only through sched::HostFilter
  /// (sched/host_filter.hpp), which every strategy row and recovery
  /// re-placement ask.  Machines held by an application other than
  /// `reserving_app` are skipped, and placement goes around committed
  /// [start, end) host windows: machines inside a foreign active window are
  /// invisible, and under conservative backfill a pending foreign window
  /// only admits work provably finishing before its start (the offline
  /// rows and recovery have no finish estimate and never backfill).
  /// `held_booking` is the booking `reserving_app` owns (0 = none): the
  /// owner restricts its candidates to the booked hosts instead.  Null — or
  /// a table with no foreign holders and no committed windows — leaves
  /// every decision bit-identical to the reservation-free scheduler
  /// (tests/golden/, checked by test_golden).
  const WindowTable* reservations = nullptr;
  common::AppId reserving_app;
  std::uint64_t held_booking = 0;

  /// Resource prices (optional; docs/ECONOMY.md).  When set, the cost-aware
  /// strategies ("dbc-cost", "dbc-time") price every candidate placement —
  /// per-CPU-second host prices, per-MB link prices — and optimise spend
  /// against the policy's deadline/budget constraints.  Null, or a policy
  /// with no constraints, leaves every strategy's decisions bit-identical
  /// to the price-free scheduler (the economy differential pins this).
  const econ::CostModel* prices = nullptr;

  [[nodiscard]] const db::SiteRepository& repo(common::SiteId site) const {
    return *repos.at(site.value());
  }
};

/// Resolve the performance record for a task node: the site's
/// task-performance database first, then the synthetic-name fallback
/// ("<lib>.w<mflop>" graphs from the generators).
common::Expected<db::TaskPerfRecord> resolve_perf(
    const afg::TaskNode& node, const db::TaskPerformanceDb& database);

/// Base-processor computation cost of a node, used for level computation.
common::Expected<common::SimDuration> base_cost(
    const afg::TaskNode& node, const db::TaskPerformanceDb& database);

}  // namespace vdce::sched
