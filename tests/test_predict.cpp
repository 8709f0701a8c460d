// Unit tests for the performance-prediction model (§3 core).
#include <gtest/gtest.h>

#include "db/task_perf.hpp"
#include "predict/model.hpp"

namespace vdce::predict {
namespace {

db::ResourceRecord host(double mflops, double load = 0.0,
                        double memory_mb = 256.0, std::uint32_t id = 0) {
  db::ResourceRecord rec;
  rec.host = common::HostId(id);
  rec.site = common::SiteId(0);
  rec.host_name = "h" + std::to_string(id);
  rec.speed_mflops = mflops;
  rec.total_memory_mb = memory_mb;
  if (load > 0.0) {
    rec.workload_history.push_back(db::WorkloadSample{0.0, load, memory_mb});
  }
  return rec;
}

db::TaskPerfRecord task(double mflop, double mem_mb = 8.0,
                        double parallel_fraction = 0.9) {
  db::TaskPerfRecord rec;
  rec.task_name = "t";
  rec.computation_mflop = mflop;
  rec.required_memory_mb = mem_mb;
  rec.base_exec_time = mflop / 100.0;
  rec.parallel_fraction = parallel_fraction;
  return rec;
}

TEST(Predictor, IdleHostIsWorkOverSpeed) {
  Predictor p;
  auto t = p.predict(task(1000), host(200));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 5.0);
}

TEST(Predictor, LoadDegradesEffectiveSpeed) {
  Predictor p;
  auto idle = p.predict(task(1000), host(200, 0.0));
  auto busy = p.predict(task(1000), host(200, 1.0));
  ASSERT_TRUE(idle.has_value() && busy.has_value());
  EXPECT_DOUBLE_EQ(*busy, 2.0 * *idle);  // 1/(1+1) of the machine left
}

TEST(Predictor, EffectiveMflops) {
  EXPECT_DOUBLE_EQ(Predictor::effective_mflops(host(300, 2.0)), 100.0);
  EXPECT_DOUBLE_EQ(Predictor::effective_mflops(host(300)), 300.0);
}

TEST(Predictor, MemoryInfeasibleFails) {
  Predictor p;
  auto t = p.predict(task(1000, /*mem_mb=*/512), host(200, 0.0, 256));
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().code, common::ErrorCode::kNoFeasibleResource);
}

TEST(Predictor, PagingPenaltyWhenAvailableTight) {
  Predictor p;
  db::ResourceRecord h = host(100, 0.0, 256);
  // Total memory is fine, but the live sample says only 4MB is free.
  h.workload_history.push_back(db::WorkloadSample{0.0, 0.0, 4.0});
  auto t = p.predict(task(1000, /*mem_mb=*/8), h);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 10.0 * 4.0);  // the 4x paging penalty
}

TEST(Predictor, MeasuredHistoryWins) {
  Predictor p;
  db::TaskPerformanceDb database;
  auto rec = task(1000);
  database.register_task(rec);
  db::ResourceRecord h = host(200, 0.0, 256, 7);
  ASSERT_TRUE(database.record_execution("t", h.host, 42.0).ok());
  auto with = p.predict(rec, h, &database);
  auto without = p.predict(rec, h);
  ASSERT_TRUE(with.has_value() && without.has_value());
  EXPECT_DOUBLE_EQ(*with, 42.0);
  EXPECT_DOUBLE_EQ(*without, 5.0);
}

TEST(Predictor, MeasurementThresholdRespected) {
  Predictor p;
  db::TaskPerformanceDb database;
  auto rec = task(1000);
  database.register_task(rec);
  db::ResourceRecord h = host(200);
  for (std::size_t i = 1; i < kMinMeasurements; ++i) {
    (void)database.record_execution("t", h.host, 42.0);
  }
  auto below = p.predict(rec, h, &database);
  ASSERT_TRUE(below.has_value());
  EXPECT_DOUBLE_EQ(*below, 5.0);  // analytic path: one sample short
  (void)database.record_execution("t", h.host, 42.0);
  auto at = p.predict(rec, h, &database);
  ASSERT_TRUE(at.has_value());
  EXPECT_DOUBLE_EQ(*at, 42.0);  // threshold reached: the measured mean wins
}

TEST(Predictor, ParallelSpeedupFollowsAmdahl) {
  Predictor p;
  auto rec = task(1000, 8.0, 0.9);
  std::vector<db::ResourceRecord> quad;
  for (std::uint32_t i = 0; i < 4; ++i) quad.push_back(host(100, 0, 256, i));
  const std::vector<const db::ResourceRecord*> group{&quad[0], &quad[1],
                                                     &quad[2], &quad[3]};
  auto one = p.predict(rec, host(100));
  auto four = p.predict(rec, group);
  ASSERT_TRUE(one.has_value() && four.has_value());
  // T4 = 10*(0.1 + 0.9/4) + sync = 3.25 + 0.04.
  EXPECT_NEAR(*four, 3.29, 1e-9);
  EXPECT_LT(*four, *one);
}

TEST(Predictor, SlowestGroupMemberGates) {
  Predictor p;
  auto rec = task(1000, 8.0, 1.0);
  const db::ResourceRecord fast = host(400, 0, 256, 0);
  const db::ResourceRecord slow = host(100, 0, 256, 1);
  const std::vector<const db::ResourceRecord*> mixed{&fast, &slow};
  auto t = p.predict(rec, mixed);
  ASSERT_TRUE(t.has_value());
  // Fully parallel on 2 nodes at the slower 100 MFLOPS: 10/2 + sync.
  EXPECT_NEAR(*t, 5.02, 1e-9);
}

TEST(Predictor, EmptyHostsRejected) {
  Predictor p;
  auto t = p.predict(task(100), std::span<const db::ResourceRecord* const>{});
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().code, common::ErrorCode::kInvalidArgument);
}

// ---- ground truth -------------------------------------------------------------

TEST(GroundTruth, MatchesPredictorWhenNoiseFree) {
  net::Topology topology;
  auto s = topology.add_site("s", net::LinkSpec{});
  topology.add_host(s, net::HostSpec{"h", "ip", "a", "o", "t", 200, 256});
  GroundTruthModel gt(topology);
  const double rate = gt.rate_mflops(task(1000), {common::HostId(0)}, false);
  EXPECT_DOUBLE_EQ(1000 / rate, 5.0);
}

TEST(GroundTruth, ReadsLiveLoad) {
  net::Topology topology;
  auto s = topology.add_site("s", net::LinkSpec{});
  topology.add_host(s, net::HostSpec{"h", "ip", "a", "o", "t", 200, 256});
  topology.set_cpu_load(common::HostId(0), 1.0);
  GroundTruthModel gt(topology);
  const double rate = gt.rate_mflops(task(1000), {common::HostId(0)}, false);
  EXPECT_DOUBLE_EQ(1000 / rate, 10.0);
}

TEST(GroundTruth, PredictionErrorGrowsWithStaleness) {
  // The db view says idle; the live host is loaded -> prediction is
  // optimistic by exactly the load factor.  This is the E3 mechanism.
  net::Topology topology;
  auto s = topology.add_site("s", net::LinkSpec{});
  topology.add_host(s, net::HostSpec{"h", "ip", "a", "o", "t", 100, 256});
  topology.set_cpu_load(common::HostId(0), 2.0);
  Predictor p;
  GroundTruthModel gt(topology);
  auto predicted = p.predict(task(1000), host(100, 0.0));
  double actual =
      1000 / gt.rate_mflops(task(1000), {common::HostId(0)}, false);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_DOUBLE_EQ(actual / *predicted, 3.0);
}

}  // namespace
}  // namespace vdce::predict
