// Unit tests for the common substrate: ids, rng, strings, stats, expected.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"

namespace vdce::common {
namespace {

// ---- ids --------------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  HostId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), HostId::kInvalid);
}

TEST(Ids, ValueRoundTrip) {
  SiteId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  TaskId a(1), b(2);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, TaskId(1));
  EXPECT_NE(a, b);
}

TEST(Ids, Hashable) {
  std::unordered_set<HostId> set;
  set.insert(HostId(1));
  set.insert(HostId(2));
  set.insert(HostId(1));
  EXPECT_EQ(set.size(), 2u);
}

// ---- expected ------------------------------------------------------------------

TEST(Expected, HoldsValue) {
  Expected<int> e(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 7);
  EXPECT_EQ(e.value_or(9), 7);
}

TEST(Expected, HoldsError) {
  Expected<int> e(Error{ErrorCode::kNotFound, "missing"});
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(e.value_or(9), 9);
  EXPECT_EQ(e.error().to_string(), "not_found: missing");
}

TEST(Expected, StatusDefaultsToOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status err(Error{ErrorCode::kTimeout, "t"});
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, ErrorCode::kTimeout);
}

TEST(Expected, ErrorCodeNames) {
  EXPECT_STREQ(to_string(ErrorCode::kAuthFailed), "auth_failed");
  EXPECT_STREQ(to_string(ErrorCode::kCycleDetected), "cycle_detected");
  EXPECT_STREQ(to_string(ErrorCode::kNoFeasibleResource),
               "no_feasible_resource");
}

// ---- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3}));
}

TEST(Rng, NormalRespectsFloor) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.normal(0.0, 10.0, 0.5), 0.5);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(4);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkDivergesFromParent) {
  Rng a(7);
  Rng child = a.fork();
  // The child stream should not reproduce the parent's next values.
  Rng b(7);
  (void)b.uniform(0, 1);  // advance identically to a.fork()'s draw
  bool all_equal = true;
  for (int i = 0; i < 10; ++i) {
    if (child.uniform(0, 1) != b.uniform(0, 1)) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, PickIndexInRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.pick_index(7), 7u);
}

// ---- strings -----------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsSkipsRuns) {
  auto parts = split_ws("  one\t two \n three  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("  -2 ").value(), -2.0);
  EXPECT_FALSE(parse_double("3.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_FALSE(parse_int("42.5").has_value());
}

TEST(Strings, ParseUintHandlesLargeValues) {
  EXPECT_EQ(parse_uint("18446744073709551615").value(),
            18446744073709551615ULL);
  EXPECT_FALSE(parse_uint("-1").has_value());
}

TEST(Strings, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_bytes(2048), "2.00KB");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("matrix.lu", "matrix."));
  EXPECT_FALSE(starts_with("mat", "matrix"));
  EXPECT_TRUE(ends_with("file.afg", ".afg"));
  EXPECT_EQ(to_lower("AbC"), "abc");
}

// ---- stats --------------------------------------------------------------------

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, PercentileNearestRank) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Stats, SummaryMentionsCount) {
  Stats s;
  s.add(1.0);
  EXPECT_NE(s.summary().find("n=1"), std::string::npos);
  Stats empty;
  EXPECT_EQ(empty.summary(), "n=0");
}

// ---- time ---------------------------------------------------------------------

TEST(Time, UnitHelpers) {
  EXPECT_DOUBLE_EQ(seconds(2), 2.0);
  EXPECT_DOUBLE_EQ(milliseconds(1500), 1.5);
  EXPECT_DOUBLE_EQ(microseconds(1e6), 1.0);
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
}

TEST(Time, CloseComparison) {
  EXPECT_TRUE(time_close(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(time_close(1.0, 1.001));
}

}  // namespace
}  // namespace vdce::common
