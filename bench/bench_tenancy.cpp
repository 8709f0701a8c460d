// E12 — multi-tenant concurrency plane: submission throughput and
// submit->complete latency vs. tenant count (docs/TENANCY.md).
//
// For each tenant count the bench brings up a generated grid, creates one
// account per tenant, replays the deterministic arrival sequence from
// scale::make_tenant_arrivals (staggered submissions with think-time gaps)
// through the asynchronous API — run_for() to each arrival instant, then
// submit_application() — and drains the fleet.  Reported per configuration:
//
//   * completed / deferred counts and the admission peaks;
//   * p50 / p99 submit->complete latency (report.completed - report.enqueued,
//     which includes admission wait, scheduling, setup, and execution);
//   * throughput in applications per simulated minute over the span from
//     the first submission to the drain instant;
//   * a co-scheduling audit: per-host busy intervals from every report,
//     checked pairwise across applications — overlap means two apps
//     double-booked a machine, which the reservation table must prevent.
//
// Writes BENCH_TENANCY.json (bench_util.hpp schema; --smoke runs
// fewer/smaller configurations).  Checks: every submission completed
// successfully, no host was ever double-booked across applications, and
// the reservation table counted zero acquire conflicts.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace {

using namespace vdce;

/// One application's busy claim on one host, for the double-booking audit.
struct HostClaim {
  std::uint32_t host = 0;
  std::uint64_t app = 0;
  double start = 0.0;
  double end = 0.0;
};

/// True when any two claims on the same host from different applications
/// overlap in time (open interval — shared endpoints are fine).
bool find_double_booking(std::vector<HostClaim>& claims, std::string* who) {
  std::sort(claims.begin(), claims.end(),
            [](const HostClaim& a, const HostClaim& b) {
              if (a.host != b.host) return a.host < b.host;
              return a.start < b.start;
            });
  for (std::size_t i = 1; i < claims.size(); ++i) {
    const HostClaim& prev = claims[i - 1];
    const HostClaim& cur = claims[i];
    if (cur.host == prev.host && cur.app != prev.app &&
        cur.start < prev.end) {
      *who = "host " + std::to_string(cur.host) + ": apps " +
             std::to_string(prev.app) + " and " + std::to_string(cur.app) +
             " overlap at " + bench::json_num(cur.start) + "s";
      return true;
    }
  }
  return false;
}

struct Measurement {
  std::size_t tenants = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t deferred = 0;
  std::size_t peak_in_flight = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double contention_max = 0.0;  ///< largest admission wait observed
  double throughput = 0.0;      ///< apps per simulated minute
  double span = 0.0;            ///< first submission -> drained
  double wall_ms = 0.0;
  bool all_success = false;
  bool no_double_booking = false;
  std::uint64_t reservation_conflicts = 0;
};

Measurement measure(std::size_t tenants, std::size_t apps_per_tenant,
                    bool smoke) {
  Measurement m;
  m.tenants = tenants;
  const double t0 = bench::now_ms();

  ScaleSpec spec;
  spec.grid.sites = smoke ? 2 : 3;
  spec.grid.hosts_per_site = smoke ? 6 : 10;
  spec.grid.seed = 41;
  spec.options.runtime.exec_noise_cv = 0.0;
  auto env = VdceEnvironment::make_scale_environment(spec);
  if (!env) {
    std::fprintf(stderr, "bring-up failed: %s\n",
                 env.error().to_string().c_str());
    return m;
  }

  scale::TenantSpec ts;
  ts.tenants = tenants;
  ts.apps_per_tenant = apps_per_tenant;
  ts.seed = 7;
  const std::vector<scale::TenantArrival> arrivals =
      scale::make_tenant_arrivals(ts);

  // One account and session per tenant (the arrival's priority is the
  // account priority, exercised by QueuePolicy::kPriority elsewhere).
  std::vector<Session> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::string user = "tenant" + std::to_string(t);
    int priority = 1;
    for (const scale::TenantArrival& a : arrivals) {
      if (a.tenant == t) { priority = a.priority; break; }
    }
    auto added = (*env)->try_add_user(user, "pw", priority);
    if (!added.ok()) {
      std::fprintf(stderr, "add_user failed: %s\n",
                   added.error().to_string().c_str());
      return m;
    }
    auto session = (*env)->login(common::SiteId(0), user, "pw");
    if (!session) {
      std::fprintf(stderr, "login failed: %s\n",
                   session.error().to_string().c_str());
      return m;
    }
    sessions.push_back(*session);
  }

  // Replay the arrival schedule against the asynchronous API.
  std::vector<AppHandle> handles;
  double first_submit = -1.0;
  for (const scale::TenantArrival& a : arrivals) {
    if (a.at > (*env)->now()) (*env)->run_for(a.at - (*env)->now());
    afg::Afg graph = scale::make_workload(a.workload, a.app_name);
    RunOptions run;
    run.real_kernels = false;
    auto handle =
        (*env)->submit_application(graph, sessions[a.tenant], run);
    ++m.submitted;
    if (!handle) {
      std::fprintf(stderr, "submit %s rejected: %s\n", a.app_name.c_str(),
                   handle.error().to_string().c_str());
      continue;
    }
    if (first_submit < 0.0) first_submit = (*env)->now();
    handles.push_back(*handle);
  }

  auto drained = (*env)->drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n",
                 drained.error().to_string().c_str());
    return m;
  }

  std::vector<double> latencies;
  std::vector<HostClaim> claims;
  bool all_success = !handles.empty();
  for (AppHandle h : handles) {
    auto report = (*env)->report(h);
    if (!report || !report->success) {
      all_success = false;
      continue;
    }
    ++m.completed;
    latencies.push_back(report->completed - report->enqueued);
    m.contention_max =
        std::max(m.contention_max, report->admitted - report->enqueued);
    for (const runtime::TaskOutcome& o : report->outcomes) {
      claims.push_back(HostClaim{o.host.value(), h.id, o.started, o.finished});
    }
  }
  m.all_success = all_success;

  std::string violation;
  m.no_double_booking = !find_double_booking(claims, &violation);
  if (!m.no_double_booking) {
    std::fprintf(stderr, "DOUBLE BOOKING: %s\n", violation.c_str());
  }
  m.reservation_conflicts = (*env)->core().reservations().conflicts();

  const tenancy::TenancyStats& stats = (*env)->tenancy_stats();
  m.deferred = stats.deferred;
  m.peak_in_flight = stats.peak_in_flight;

  std::sort(latencies.begin(), latencies.end());
  auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const double pos = q * static_cast<double>(latencies.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return latencies[lo] * (1.0 - frac) + latencies[hi] * frac;
  };
  m.p50 = quantile(0.50);
  m.p99 = quantile(0.99);

  m.span = first_submit >= 0.0 ? (*env)->now() - first_submit : 0.0;
  if (m.span > 0.0) {
    m.throughput = static_cast<double>(m.completed) * 60.0 / m.span;
  }
  m.wall_ms = bench::now_ms() - t0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "tenancy", "BENCH_TENANCY.json");
  const bool smoke = run.smoke();

  bench::print_title("E12", "multi-tenant throughput and latency vs. tenants");
  bench::print_note(
      "Staggered arrival sequences replayed through submit/drain; latency is\n"
      "submit->complete (admission wait included).  The audit column proves\n"
      "no host was ever shared by two applications at the same instant.");

  const std::vector<std::size_t> tenant_counts =
      smoke ? std::vector<std::size_t>{1, 2, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t apps_per_tenant = smoke ? 2 : 3;

  bool all_success = true;
  bool no_double_booking = true;
  std::uint64_t conflicts = 0;
  for (std::size_t tenants : tenant_counts) {
    Measurement m = measure(tenants, apps_per_tenant, smoke);
    all_success = all_success && m.all_success;
    no_double_booking = no_double_booking && m.no_double_booking;
    conflicts += m.reservation_conflicts;
    run.row("configs")
        .num("tenants", m.tenants)
        .num("submitted", m.submitted)
        .num("completed", m.completed)
        .num("deferred", m.deferred)
        .num("peak_in_flight", m.peak_in_flight)
        .num("p50_s", m.p50)
        .num("p99_s", m.p99)
        .num("apps_per_min", m.throughput)
        .num("max_admission_wait_s", m.contention_max)
        .num("span_s", m.span)
        .num("wall_ms", m.wall_ms)
        .flag("all_success", m.all_success)
        .flag("no_double_booking", m.no_double_booking)
        .num("reservation_conflicts", m.reservation_conflicts);
  }
  run.table("configs");
  run.row("summary")
      .num("apps_per_tenant", apps_per_tenant)
      .flag("all_success", all_success)
      .flag("no_double_booking", no_double_booking)
      .num("reservation_conflicts", conflicts);
  run.check("all_success", all_success,
            "every submission was admitted and completed");
  run.check("no_double_booking", no_double_booking,
            "no host was shared by two applications at once");
  run.check("reservation_conflicts", conflicts == 0,
            bench::strf("%llu reservation-table acquire conflicts; budget 0",
                        static_cast<unsigned long long>(conflicts)));
  return run.finish();
}
