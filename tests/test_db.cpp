// Unit tests for the site-repository databases (§3 schemas).
#include <gtest/gtest.h>

#include "db/site_repository.hpp"
#include "net/topology.hpp"

namespace vdce::db {
namespace {

// ---- user accounts ----------------------------------------------------------

TEST(UserAccounts, AddAndAuthenticate) {
  UserAccountsDb db;
  auto id = db.add_user("user_k", "secret", 3, AccessDomain::kGlobal);
  ASSERT_TRUE(id.has_value());
  auto account = db.authenticate("user_k", "secret");
  ASSERT_TRUE(account.has_value());
  EXPECT_EQ(account->user_id, *id);
  EXPECT_EQ(account->priority, 3);
  EXPECT_EQ(account->domain, AccessDomain::kGlobal);
}

TEST(UserAccounts, RejectsWrongPasswordAndUnknownUserAlike) {
  UserAccountsDb db;
  (void)db.add_user("u", "right", 1, AccessDomain::kLocalSite);
  auto wrong = db.authenticate("u", "wrong");
  auto unknown = db.authenticate("ghost", "x");
  ASSERT_FALSE(wrong.has_value());
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(wrong.error().code, common::ErrorCode::kAuthFailed);
  EXPECT_EQ(unknown.error().code, common::ErrorCode::kAuthFailed);
}

TEST(UserAccounts, DuplicateRejected) {
  UserAccountsDb db;
  ASSERT_TRUE(db.add_user("u", "a", 1, AccessDomain::kLocalSite).has_value());
  auto dup = db.add_user("u", "b", 1, AccessDomain::kLocalSite);
  ASSERT_FALSE(dup.has_value());
  EXPECT_EQ(dup.error().code, common::ErrorCode::kAlreadyExists);
}

TEST(UserAccounts, EmptyNameRejected) {
  UserAccountsDb db;
  EXPECT_FALSE(db.add_user("", "a", 1, AccessDomain::kLocalSite).has_value());
}

TEST(UserAccounts, RemoveAndPriority) {
  UserAccountsDb db;
  (void)db.add_user("u", "a", 1, AccessDomain::kLocalSite);
  EXPECT_TRUE(db.set_priority("u", 9).ok());
  EXPECT_EQ(db.find("u")->priority, 9);
  EXPECT_TRUE(db.remove_user("u").ok());
  EXPECT_FALSE(db.remove_user("u").ok());
  EXPECT_EQ(db.size(), 0u);
}

TEST(UserAccounts, FindByIdAndAll) {
  UserAccountsDb db;
  auto id = db.add_user("a", "x", 1, AccessDomain::kGlobal);
  (void)db.add_user("b", "y", 2, AccessDomain::kLocalSite);
  EXPECT_EQ(db.find(*id)->user_name, "a");
  EXPECT_FALSE(db.find(common::UserId(99)).has_value());
}

// ---- resource performance -----------------------------------------------------

ResourceRecord make_host(std::uint32_t id, std::uint32_t site,
                         const std::string& name, double speed = 100) {
  ResourceRecord rec;
  rec.host = common::HostId(id);
  rec.site = common::SiteId(site);
  rec.host_name = name;
  rec.speed_mflops = speed;
  rec.total_memory_mb = 256;
  return rec;
}

TEST(ResourcePerf, RegisterAndFind) {
  ResourcePerformanceDb db;
  ASSERT_TRUE(db.register_host(make_host(0, 0, "a")).ok());
  EXPECT_FALSE(db.register_host(make_host(0, 0, "a")).ok());
  EXPECT_EQ(db.find(common::HostId(0))->host_name, "a");
  EXPECT_EQ(db.find("a")->host, common::HostId(0));
  EXPECT_FALSE(db.find("z").has_value());
}

TEST(ResourcePerf, WorkloadHistoryBounded) {
  ResourcePerformanceDb db;
  (void)db.register_host(make_host(0, 0, "a"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.record_workload(common::HostId(0),
                                   WorkloadSample{static_cast<double>(i),
                                                  0.1 * i, 100})
                    .ok());
  }
  auto rec = db.find(common::HostId(0));
  EXPECT_EQ(rec->workload_history.size(), ResourceRecord::kHistoryLen);
  EXPECT_DOUBLE_EQ(rec->current_load(), 0.1 * 39);
  EXPECT_DOUBLE_EQ(rec->last_sample_time(), 39.0);
}

TEST(ResourcePerf, FreshHostIsOptimistic) {
  ResourcePerformanceDb db;
  (void)db.register_host(make_host(0, 0, "a"));
  auto rec = db.find(common::HostId(0));
  EXPECT_DOUBLE_EQ(rec->current_load(), 0.0);
  EXPECT_DOUBLE_EQ(rec->available_mb(), 256.0);
  EXPECT_LT(rec->last_sample_time(), 0.0);
}

TEST(ResourcePerf, AvailableHostsFiltersDownAndSite) {
  ResourcePerformanceDb db;
  (void)db.register_host(make_host(0, 0, "a"));
  (void)db.register_host(make_host(1, 0, "b"));
  (void)db.register_host(make_host(2, 1, "c"));
  (void)db.set_host_up(common::HostId(1), false);
  auto avail = db.available_hosts(common::SiteId(0));
  ASSERT_EQ(avail.size(), 1u);
  EXPECT_EQ(avail[0].host_name, "a");
  (void)db.set_host_up(common::HostId(1), true);
  EXPECT_EQ(db.available_hosts(common::SiteId(0)).size(), 2u);
}

TEST(ResourcePerf, UnknownHostErrors) {
  ResourcePerformanceDb db;
  EXPECT_FALSE(db.record_workload(common::HostId(9), {}).ok());
  EXPECT_FALSE(db.set_host_up(common::HostId(9), false).ok());
}

// ---- task performance ------------------------------------------------------------

TEST(TaskPerf, RegisterAndFind) {
  TaskPerformanceDb db;
  TaskPerfRecord rec;
  rec.task_name = "matrix.lu";
  rec.computation_mflop = 2000;
  rec.base_exec_time = 20;
  db.register_task(rec);
  EXPECT_TRUE(db.contains("matrix.lu"));
  EXPECT_DOUBLE_EQ(db.find("matrix.lu")->base_exec_time, 20.0);
  EXPECT_FALSE(db.find("nope").has_value());
}

TEST(TaskPerf, MeasurementsRunningMean) {
  TaskPerformanceDb db;
  TaskPerfRecord rec;
  rec.task_name = "t";
  db.register_task(rec);
  common::HostId host(3);
  ASSERT_TRUE(db.record_execution("t", host, 10.0).ok());
  ASSERT_TRUE(db.record_execution("t", host, 20.0).ok());
  auto measured = db.measured("t", host);
  ASSERT_TRUE(measured.has_value());
  EXPECT_DOUBLE_EQ(measured->mean, 15.0);
  EXPECT_EQ(measured->count, 2u);
  EXPECT_FALSE(db.measured("t", common::HostId(4)).has_value());
  EXPECT_FALSE(db.record_execution("unknown", host, 1.0).ok());
}

// ---- task constraints ------------------------------------------------------------

TEST(TaskConstraints, PathsAndFeasibility) {
  TaskConstraintsDb db;
  db.register_executable("t", common::HostId(0), "/opt/t");
  EXPECT_TRUE(db.runnable_on("t", common::HostId(0)));
  EXPECT_FALSE(db.runnable_on("t", common::HostId(1)));
  EXPECT_EQ(db.executable_path("t", common::HostId(0)).value(), "/opt/t");
  EXPECT_FALSE(db.executable_path("t", common::HostId(1)).has_value());
}

TEST(TaskConstraints, RegisterEverywhere) {
  TaskConstraintsDb db;
  db.register_everywhere("lib.task", {common::HostId(0), common::HostId(2)});
  auto hosts = db.hosts_for("lib.task");
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0], common::HostId(0));
  EXPECT_EQ(hosts[1], common::HostId(2));
  EXPECT_TRUE(db.hosts_for("unknown").empty());
}

// ---- site repository ----------------------------------------------------------------

TEST(SiteRepository, RegistersHostsFromTopology) {
  net::Topology t;
  auto s0 = t.add_site("alpha", net::LinkSpec{});
  t.add_host(s0, net::HostSpec{"a0", "10.0.0.1", "sparc", "sunos",
                               "SUN sparc", 111, 128});
  t.add_host(s0, net::HostSpec{"a1", "10.0.0.2", "x86", "linux",
                               "Intel pentium", 222, 256});
  auto s1 = t.add_site("beta", net::LinkSpec{});
  t.add_host(s1, net::HostSpec{"b0", "10.1.0.1", "mips", "irix", "SGI", 99, 64});

  SiteRepository repo(s0);
  repo.register_site_hosts(t);
  EXPECT_EQ(repo.resources().size(), 2u);  // only its own site's hosts
  auto rec = repo.resources().find("a1");
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(rec->speed_mflops, 222.0);
  EXPECT_EQ(rec->machine_type, "Intel pentium");
}

// ---- persistence -----------------------------------------------------------------

TEST(ResourcePerf, WorkloadHistoryEvictsOldestFirst) {
  ResourcePerformanceDb db;
  (void)db.register_host(make_host(0, 0, "a"));
  const std::size_t total = ResourceRecord::kHistoryLen + 5;
  for (std::size_t i = 0; i < total; ++i) {
    const double t = static_cast<double>(i);
    (void)db.record_workload(common::HostId(0),
                             WorkloadSample{t, 0.5, 10.0 * t});
  }
  const ResourceRecord* rec = db.record(common::HostId(0));
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->workload_history.size(), ResourceRecord::kHistoryLen);
  // The five oldest samples are gone; the rest stay oldest-first, by index
  // and by iteration alike.
  double expected = static_cast<double>(total - ResourceRecord::kHistoryLen);
  for (std::size_t i = 0; i < rec->workload_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(rec->workload_history[i].time, expected + i);
  }
  for (const WorkloadSample& s : rec->workload_history) {
    EXPECT_DOUBLE_EQ(s.time, expected);
    EXPECT_DOUBLE_EQ(s.available_mb, 10.0 * expected);
    expected += 1.0;
  }
  EXPECT_DOUBLE_EQ(rec->workload_history.front().time, 5.0);
  EXPECT_DOUBLE_EQ(rec->last_sample_time(), static_cast<double>(total - 1));
}

}  // namespace
}  // namespace vdce::db
