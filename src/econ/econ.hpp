// Economy plane (docs/ECONOMY.md): the cost model that turns the paper's
// time-only site scheduler into a compute market.
//
// A global computing environment serving many users cannot arbitrate demand
// on completion time alone — Nimrod/G (Buyya et al., arXiv cs/0009021) and
// the DBC scheduling algorithms (Buyya/Murshed/Abramson, arXiv cs/0203020)
// attach *prices* to resources and *deadline/budget constraints* to users:
//
//  * every host quotes a per-CPU-second price (proportional to its speed by
//    default, so "fast" and "cheap" genuinely trade off);
//  * every link class quotes a per-MB transfer price (LAN cheap, WAN dear,
//    same-host free);
//  * a user submits with a deadline and a budget (RunOptions, copied into
//    the SchedulingPolicy at submission); the dbc-cost and dbc-time
//    strategies (sched/dbc.hpp) optimise one subject to the other, and the
//    admission controller rejects provably unaffordable submissions with a
//    typed kBudgetExceeded error.
//
// Charging model: spend is *quoted*, not metered — a task is charged its
// predicted execution time (at placement) times its hosts' prices, and an
// edge is charged its bytes times the placed link's price, exactly as a
// grid broker agrees a fixed-price contract before dispatch.  Because every
// placement decision (initial scheduling *and* recovery re-placement) is
// budget-checked against the same quote function, "spend never exceeds
// budget once admitted" holds by construction rather than by luck.
#pragma once

#include "afg/graph.hpp"
#include "common/ids.hpp"
#include "net/topology.hpp"
#include "sched/types.hpp"

namespace vdce::econ {

/// Per-resource prices: a fixed rate card derived from the static host
/// specs, so two environments built from the same topology always agree on
/// every quote (the differential and replay suites depend on this).
struct CostModel {
  /// G$ per CPU-second on a reference 100-MFLOPS machine.  A host's price
  /// scales linearly with its advertised speed — the Nimrod/G convention
  /// that makes cost-vs-time a real trade-off instead of "fastest is also
  /// cheapest".
  static constexpr double kBaseCpuRate = 1.0;
  /// G$ per megabyte moved over an intra-site LAN link.
  static constexpr double kLanPricePerMb = 0.01;
  /// G$ per megabyte moved over an inter-site WAN link.
  static constexpr double kWanPricePerMb = 0.10;

  /// A host's per-CPU-second price given its advertised speed (the
  /// resource-performance database view — schedulers never read topology
  /// ground truth, but static specs are identical in both).
  [[nodiscard]] double cpu_price(double speed_mflops) const {
    return kBaseCpuRate * speed_mflops / 100.0;
  }

  /// Per-MB price of the link class between two placements.
  [[nodiscard]] double mb_price(bool same_host, bool same_site) const {
    if (same_host) return 0.0;
    return same_site ? kLanPricePerMb : kWanPricePerMb;
  }

  [[nodiscard]] double transfer_cost(double bytes, bool same_host,
                                     bool same_site) const {
    return (bytes / 1e6) * mb_price(same_host, same_site);
  }

  // --- topology-aware conveniences (runtime / report side) -----------------
  [[nodiscard]] double host_price(const net::Topology& topology,
                                  common::HostId host) const;
  [[nodiscard]] double edge_cost(const net::Topology& topology,
                                 common::HostId from, common::HostId to,
                                 double bytes) const;
};

/// The rate card the runtime quotes with: the scheduling context's prices,
/// the admission budget gate, recovery re-placement and the report's spend.
inline constexpr CostModel kRateCard{};

/// Spend split by what the money bought, mirroring the causal phase
/// breakdown's exact-tiling discipline: compute + transfer == total(),
/// bit-for-bit (both components are plain sums, no normalisation).
struct SpendBreakdown {
  double compute = 0.0;   ///< Σ task: predicted CPU-seconds x host prices
  double transfer = 0.0;  ///< Σ edge: bytes x placed link's per-MB price

  [[nodiscard]] double total() const { return compute + transfer; }
};

/// Quoted spend of an allocation table: every assignment charged at its
/// predicted time on its hosts' prices, every edge at the price of the link
/// between the placed primary hosts.  Used identically at admission (gate
/// against the budget), at recovery re-placement (gate the repaired table),
/// and at completion (the report's spend()), so all three always agree.
[[nodiscard]] SpendBreakdown estimate_spend(
    const afg::Afg& graph, const sched::ResourceAllocationTable& table,
    const net::Topology& topology, const CostModel& model);

}  // namespace vdce::econ
