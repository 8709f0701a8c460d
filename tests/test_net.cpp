// Unit tests for the network substrate: topology, routing, fabric delivery,
// failure semantics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace vdce::net {
namespace {

const MsgType kT("t");

Topology two_sites() {
  Topology t;
  auto s0 = t.add_site("alpha", LinkSpec{0.001, 1e6});
  auto s1 = t.add_site("beta", LinkSpec{0.002, 2e6});
  t.add_host(s0, HostSpec{"a0", "10.0.0.1", "sparc", "sunos", "SUN sparc", 100, 128}, 0);
  t.add_host(s0, HostSpec{"a1", "10.0.0.2", "sparc", "sunos", "SUN sparc", 200, 256}, 0);
  t.add_host(s0, HostSpec{"a2", "10.0.0.3", "x86", "linux", "Intel pentium", 150, 64}, 1);
  t.add_host(s1, HostSpec{"b0", "10.1.0.1", "mips", "irix", "SGI", 120, 512}, 0);
  t.add_host(s1, HostSpec{"b1", "10.1.0.2", "mips", "irix", "SGI", 90, 128}, 0);
  t.set_wan_link(s0, s1, LinkSpec{0.030, 1e5});
  return t;
}

TEST(Topology, SiteAndHostBookkeeping) {
  Topology t = two_sites();
  EXPECT_EQ(t.site_count(), 2u);
  EXPECT_EQ(t.host_count(), 5u);
  EXPECT_EQ(t.site(common::SiteId(0)).hosts.size(), 3u);
  EXPECT_EQ(t.site(common::SiteId(1)).hosts.size(), 2u);
}

TEST(Topology, FirstHostBecomesServer) {
  Topology t = two_sites();
  EXPECT_EQ(t.site(common::SiteId(0)).server, common::HostId(0));
  EXPECT_EQ(t.site(common::SiteId(1)).server, common::HostId(3));
}

TEST(Topology, GroupLeadership) {
  Topology t = two_sites();
  const Host& a0 = t.host(common::HostId(0));
  const Host& a2 = t.host(common::HostId(2));
  EXPECT_NE(a0.group, a2.group);  // different group indices
  EXPECT_EQ(t.group(a0.group).leader, common::HostId(0));
  EXPECT_EQ(t.group(a2.group).leader, common::HostId(2));
  EXPECT_EQ(t.site(common::SiteId(0)).groups.size(), 2u);
}

TEST(Topology, FindByName) {
  Topology t = two_sites();
  EXPECT_EQ(t.find_host("b1").value(), common::HostId(4));
  EXPECT_FALSE(t.find_host("nope").has_value());
  EXPECT_EQ(t.find_site("beta").value(), common::SiteId(1));
}

TEST(Topology, LinkSelection) {
  Topology t = two_sites();
  // Same host: effectively free.
  auto self = t.link_between(common::HostId(0), common::HostId(0));
  EXPECT_DOUBLE_EQ(self.latency, 0.0);
  // Intra-site: the site LAN.
  auto lan = t.link_between(common::HostId(0), common::HostId(2));
  EXPECT_DOUBLE_EQ(lan.latency, 0.001);
  // Inter-site: the declared WAN link.
  auto wan = t.link_between(common::HostId(0), common::HostId(3));
  EXPECT_DOUBLE_EQ(wan.latency, 0.030);
  // A pair declared twice keeps its first declaration, in either order.
  t.set_wan_link(common::SiteId(1), common::SiteId(0), LinkSpec{0.9, 1e3});
  EXPECT_DOUBLE_EQ(
      t.link_between(common::HostId(3), common::HostId(0)).latency, 0.030);
  EXPECT_DOUBLE_EQ(t.wan_link(common::SiteId(0), common::SiteId(1)).latency,
                   0.030);
}

TEST(Topology, TransferTimeFormula) {
  Topology t = two_sites();
  // 1e5 bytes over the 0.030s/1e5Bps WAN = 0.030 + 1.0.
  EXPECT_NEAR(t.transfer_time(common::HostId(0), common::HostId(3), 1e5),
              1.030, 1e-9);
}

TEST(Topology, DefaultWanForUndeclaredPairs) {
  Topology t;
  auto s0 = t.add_site("a", LinkSpec{0.001, 1e6});
  auto s1 = t.add_site("b", LinkSpec{0.001, 1e6});
  t.add_host(s0, HostSpec{}, 0);
  t.add_host(s1, HostSpec{}, 0);
  t.set_default_wan(LinkSpec{0.5, 1e3});
  EXPECT_DOUBLE_EQ(t.wan_link(s0, s1).latency, 0.5);

  // A site added after links exist starts undeclared, and its own links
  // land in slots of their own.
  t.set_wan_link(s1, s0, LinkSpec{0.2, 1e4});
  auto s2 = t.add_site("c", LinkSpec{0.001, 1e6});
  t.add_host(s2, HostSpec{}, 0);
  EXPECT_DOUBLE_EQ(t.wan_link(s0, s1).latency, 0.2);
  EXPECT_DOUBLE_EQ(t.wan_link(s2, s0).latency, 0.5);
  t.set_wan_link(s2, s1, LinkSpec{0.3, 1e4});
  EXPECT_DOUBLE_EQ(t.wan_link(s1, s2).latency, 0.3);
  EXPECT_DOUBLE_EQ(t.wan_link(s0, s2).latency, 0.5);

  // The default applies at lookup, so setting it last reaches every
  // undeclared pair and no declared one.
  t.set_default_wan(LinkSpec{0.7, 1e3});
  EXPECT_DOUBLE_EQ(t.wan_link(s0, s2).latency, 0.7);
  EXPECT_DOUBLE_EQ(t.wan_link(s0, s1).latency, 0.2);
  EXPECT_DOUBLE_EQ(t.wan_link(s2, s1).latency, 0.3);
}

TEST(Topology, NearestSitesOrderedByLatency) {
  Topology t;
  auto s0 = t.add_site("s0", LinkSpec{});
  auto s1 = t.add_site("s1", LinkSpec{});
  auto s2 = t.add_site("s2", LinkSpec{});
  auto s3 = t.add_site("s3", LinkSpec{});
  t.set_wan_link(s0, s1, LinkSpec{0.050, 1e6});
  t.set_wan_link(s0, s2, LinkSpec{0.010, 1e6});
  t.set_wan_link(s0, s3, LinkSpec{0.030, 1e6});
  auto nearest = t.nearest_sites(s0, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0], s2);
  EXPECT_EQ(nearest[1], s3);
  EXPECT_EQ(t.nearest_sites(s0, 10).size(), 3u);
  EXPECT_TRUE(t.nearest_sites(s0, 0).empty());
}

TEST(Topology, DynamicState) {
  Topology t = two_sites();
  common::HostId h(1);
  EXPECT_TRUE(t.host_up(h));
  t.set_host_up(h, false);
  EXPECT_FALSE(t.host_up(h));
  t.set_cpu_load(h, 1.5);
  EXPECT_DOUBLE_EQ(t.host(h).state.cpu_load, 1.5);
  t.add_cpu_load(h, -2.0);  // clamped at zero
  EXPECT_DOUBLE_EQ(t.host(h).state.cpu_load, 0.0);
}

// ---- fabric --------------------------------------------------------------------

struct FabricFixture : ::testing::Test {
  FabricFixture() : topology(two_sites()), fabric(engine, topology) {}
  sim::Engine engine;
  Topology topology;
  Fabric fabric;
};

TEST_F(FabricFixture, DeliversAfterTransferTime) {
  std::vector<double> arrival;
  fabric.bind(common::HostId(3), [&](const Message&) {
    arrival.push_back(engine.now());
  });
  auto when = fabric.send(Message{common::HostId(0), common::HostId(3),
                                  MsgType("test"), 1e5, {}});
  ASSERT_TRUE(when.has_value());
  EXPECT_NEAR(*when, 1.030, 1e-9);
  engine.run();
  ASSERT_EQ(arrival.size(), 1u);
  EXPECT_NEAR(arrival[0], 1.030, 1e-9);
}

TEST_F(FabricFixture, PayloadRoundTrip) {
  std::string got;
  fabric.bind(common::HostId(1), [&](const Message& m) {
    got = m.payload.get<std::string>();
  });
  (void)fabric.send(Message{common::HostId(0), common::HostId(1), kT, 64,
                            std::string("hello")});
  engine.run();
  EXPECT_EQ(got, "hello");
}

TEST(MsgType, InterningIsStableAndNamed) {
  const MsgType a("test.intern");
  const MsgType b("test.intern");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.name(), "test.intern");
  EXPECT_EQ(MsgType::find("test.intern"), a);
  EXPECT_FALSE(MsgType("test.other") == a);
  // find() never interns: an unknown name maps to the default (empty) type.
  EXPECT_EQ(MsgType::find("test.never-interned"), MsgType{});
  EXPECT_EQ(MsgType{}.name(), "");
}

TEST(Payload, CopiesMovesAndTypeChecks) {
  auto shared = std::make_shared<const std::vector<int>>(3, 7);
  Payload p(shared);
  EXPECT_TRUE(p.has_value());
  EXPECT_TRUE(p.holds<std::shared_ptr<const std::vector<int>>>());
  EXPECT_FALSE(p.holds<int>());
  EXPECT_EQ(shared.use_count(), 2);
  {
    Payload copy = p;  // copies share, never deep-copy
    EXPECT_EQ(shared.use_count(), 3);
    Payload moved = std::move(copy);
    EXPECT_FALSE(copy.has_value());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(shared.use_count(), 3);
    EXPECT_EQ(moved.get<std::shared_ptr<const std::vector<int>>>()->at(2), 7);
  }
  EXPECT_EQ(shared.use_count(), 2);
  p = Payload(42);
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(p.get<int>(), 42);
  p.reset();
  EXPECT_FALSE(p.has_value());
}

TEST_F(FabricFixture, SentTypesAreSortedByName) {
  fabric.bind(common::HostId(1), [](const Message&) {});
  const MsgType zeta("test.zeta");
  const MsgType alpha("test.alpha");
  (void)fabric.send(
      Message{common::HostId(0), common::HostId(1), zeta, 64, {}});
  (void)fabric.send(
      Message{common::HostId(0), common::HostId(1), alpha, 64, {}});
  (void)fabric.send(
      Message{common::HostId(0), common::HostId(1), zeta, 64, {}});
  const auto types = fabric.stats().sent_types();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], (std::pair<std::string, std::uint64_t>{"test.alpha", 1}));
  EXPECT_EQ(types[1], (std::pair<std::string, std::uint64_t>{"test.zeta", 2}));
  EXPECT_EQ(fabric.stats().sent_by_type("test.zeta"), 2u);
  EXPECT_EQ(fabric.stats().sent_by_type("test.unsent"), 0u);
}

TEST_F(FabricFixture, DropsWhenDestinationDownAtDelivery) {
  int delivered = 0;
  fabric.bind(common::HostId(3), [&](const Message&) { ++delivered; });
  (void)fabric.send(Message{common::HostId(0), common::HostId(3), kT, 64, {}});
  // Kill the destination while the message is in flight.
  topology.set_host_up(common::HostId(3), false);
  engine.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.stats().dropped_dst_down, 1u);
}

TEST_F(FabricFixture, RejectsWhenSourceDown) {
  topology.set_host_up(common::HostId(0), false);
  auto result = fabric.send(Message{common::HostId(0), common::HostId(1),
                                    kT, 64, {}});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, common::ErrorCode::kHostDown);
}

TEST_F(FabricFixture, UnboundDestinationCounted) {
  (void)fabric.send(Message{common::HostId(0), common::HostId(4), kT, 64, {}});
  engine.run();
  EXPECT_EQ(fabric.stats().dropped_unbound, 1u);
}

TEST_F(FabricFixture, MulticastReachesAll) {
  int count = 0;
  for (auto h : {1u, 2u, 3u}) {
    fabric.bind(common::HostId(h), [&](const Message&) { ++count; });
  }
  fabric.multicast(common::HostId(0),
                   {common::HostId(1), common::HostId(2), common::HostId(3)},
                   MsgType("mc"), 64, {});
  engine.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(fabric.stats().sent_by_type("mc"), 3u);
}

TEST_F(FabricFixture, StatsAccumulateAndReset) {
  fabric.bind(common::HostId(1), [](const Message&) {});
  const MsgType a("a");
  (void)fabric.send(Message{common::HostId(0), common::HostId(1), a, 100, {}});
  (void)fabric.send(Message{common::HostId(0), common::HostId(1), a, 100, {}});
  engine.run();
  EXPECT_EQ(fabric.stats().sent, 2u);
  EXPECT_EQ(fabric.stats().delivered, 2u);
  EXPECT_DOUBLE_EQ(fabric.stats().bytes_sent, 200.0);
  fabric.reset_stats();
  EXPECT_EQ(fabric.stats().sent, 0u);
}

TEST_F(FabricFixture, IntraSiteFasterThanInterSite) {
  double lan_arrival = -1, wan_arrival = -1;
  fabric.bind(common::HostId(1), [&](const Message&) { lan_arrival = engine.now(); });
  fabric.bind(common::HostId(3), [&](const Message&) { wan_arrival = engine.now(); });
  (void)fabric.send(Message{common::HostId(0), common::HostId(1), kT, 1e4, {}});
  (void)fabric.send(Message{common::HostId(0), common::HostId(3), kT, 1e4, {}});
  engine.run();
  EXPECT_LT(lan_arrival, wan_arrival);
}

TEST_F(FabricFixture, SharedSegmentsSerializeConcurrentTransfers) {
  // Two 1 MB transfers on the same LAN (1e6 Bps): without contention both
  // arrive after ~1s; with shared segments the second queues behind the
  // first and arrives after ~2s.
  std::vector<double> arrivals;
  fabric.bind(common::HostId(1), [&](const Message&) {
    arrivals.push_back(engine.now());
  });
  fabric.bind(common::HostId(2), [&](const Message&) {
    arrivals.push_back(engine.now());
  });

  fabric.set_shared_segments(true);
  (void)fabric.send(Message{common::HostId(0), common::HostId(1), kT, 1e6, {}});
  (void)fabric.send(Message{common::HostId(0), common::HostId(2), kT, 1e6, {}});
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 1.001, 1e-6);
  EXPECT_NEAR(arrivals[1], 2.001, 1e-6);
}

TEST_F(FabricFixture, SharedSegmentsIndependentAcrossSegments) {
  // A LAN transfer and a WAN transfer do not contend with each other.
  fabric.set_shared_segments(true);
  std::vector<double> arrivals(2, -1);
  fabric.bind(common::HostId(1), [&](const Message&) { arrivals[0] = engine.now(); });
  fabric.bind(common::HostId(3), [&](const Message&) { arrivals[1] = engine.now(); });
  (void)fabric.send(Message{common::HostId(0), common::HostId(1), kT, 1e6, {}});
  (void)fabric.send(Message{common::HostId(0), common::HostId(3), kT, 1e5, {}});
  engine.run();
  EXPECT_NEAR(arrivals[0], 1.001, 1e-6);   // LAN: 1e6/1e6 + 1ms
  EXPECT_NEAR(arrivals[1], 1.030, 1e-6);   // WAN: 1e5/1e5 + 30ms, unqueued
}

TEST_F(FabricFixture, SharedSegmentsLoopbackNeverContends) {
  fabric.set_shared_segments(true);
  double arrival = -1;
  fabric.bind(common::HostId(0), [&](const Message&) { arrival = engine.now(); });
  (void)fabric.send(Message{common::HostId(1), common::HostId(2), kT, 1e7, {}});
  (void)fabric.send(
      Message{common::HostId(0), common::HostId(0), MsgType("self"), 64, {}});
  engine.run();
  EXPECT_NEAR(arrival, 0.0, 1e-6);  // loopback ignores the busy LAN
}

}  // namespace
}  // namespace vdce::net
