// bench::Run — the one writer behind every BENCH_*.json and every bench's
// console table: number and string encoding, the document schema, the table
// layout, and finish()'s exit codes.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace bench = vdce::bench;
using bench::json_num;
using bench::json_str;

/// argv for `bench_demo <flags...>`; the strings outlive the Run.
struct Args {
  explicit Args(std::vector<std::string> flags) : words(std::move(flags)) {
    words.insert(words.begin(), "bench_demo");
    for (std::string& w : words) ptrs.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> words;
  std::vector<char*> ptrs;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchUtil, NumbersUseTheShortestRoundTripForm) {
  EXPECT_EQ(json_num(0.1), "0.1");
  EXPECT_EQ(json_num(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_num(3.0), "3");
  EXPECT_EQ(json_num(-0.5), "-0.5");
  EXPECT_EQ(json_num(2129888.0), "2129888");
  EXPECT_EQ(json_num(1e6), "1e+06");
  EXPECT_EQ(std::stod(json_num(1590.2780459970236)), 1590.2780459970236);
}

TEST(BenchUtil, NonFiniteNumbersAreNull) {
  EXPECT_EQ(json_num(std::nan("")), "null");
  EXPECT_EQ(json_num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_num(-std::numeric_limits<double>::infinity()), "null");
}

TEST(BenchUtil, StringsAreEscaped) {
  EXPECT_EQ(json_str("plain"), "\"plain\"");
  EXPECT_EQ(json_str("say \"hi\""), R"("say \"hi\"")");
  EXPECT_EQ(json_str("a\\b"), R"("a\\b")");
  EXPECT_EQ(json_str("line1\nline2\r\ttab"), R"("line1\nline2\r\ttab")");
  EXPECT_EQ(json_str(std::string("\x01\x1f\b", 3)), R"("\u0001\u001f\u0008")");
}

TEST(BenchUtil, DocumentSchemaWithFlatDottedRows) {
  Args args({});
  bench::Run run(args.argc(), args.argv(), "demo", temp_path("unused.json"));
  run.row("summary")
      .num("threshold", 1.5)
      .num("events", std::uint64_t{2129888})
      .num("grid.sites", 32)
      .flag("identical", true)
      .str("label", "fresh");
  run.row("sweep")
      .num("nan_speedup", std::nan(""))
      .num("by_class.crash.recall", 1.0);
  run.check("speedup", true, "1.6x, floor 1.4x");
  run.check("detail", false, "line \"one\"\nline two");
  EXPECT_EQ(run.json(),
            R"({"bench":"demo","mode":"full","metrics":[)"
            R"({"series":"summary","threshold":1.5,"events":2129888,)"
            R"("grid.sites":32,"identical":true,"label":"fresh"},)"
            R"({"series":"sweep","nan_speedup":null,)"
            R"("by_class.crash.recall":1}],"checks":[)"
            R"({"name":"speedup","ok":true,"detail":"1.6x, floor 1.4x"},)"
            R"({"name":"detail","ok":false,)"
            R"("detail":"line \"one\"\nline two"}]})");
}

TEST(BenchUtil, TableColumnsFollowFirstSeenKeysWithBlanks) {
  Args args({});
  bench::Run run(args.argc(), args.argv(), "demo", temp_path("unused.json"));
  run.row("sweep").num("k", 1).num("ms", 0.5);
  run.row("other").num("x", 9);
  run.row("sweep").str("shape", "bag").num("k", 12).flag("ok", true);
  run.row("sweep").num("ms", 1.0 / 3.0).num("events", std::uint64_t{2129888});
  // Columns in first-seen key order; a missing key leaves a blank cell,
  // and no line carries trailing blanks.
  EXPECT_EQ(run.table_text("sweep"),
            "  k   ms        shape  ok    events\n"
            "------------------------------------\n"
            "  1   0.5\n"
            "  12            bag    true\n"
            "      0.333333               2129888\n");
  EXPECT_EQ(run.table_text("other"),
            "  x\n"
            "---\n"
            "  9\n");
}

TEST(BenchUtil, SmokeFlagSetsModeInAnyOrder) {
  Args args({"--check", "--smoke"});
  bench::Run run(args.argc(), args.argv(), "demo", temp_path("unused.json"));
  EXPECT_TRUE(run.smoke());
  EXPECT_EQ(run.json(),
            R"({"bench":"demo","mode":"smoke","metrics":[],"checks":[]})");
}

TEST(BenchUtil, FinishWritesTheDocumentAndPassesWhenChecksHold) {
  const std::string path = temp_path("BENCH_PASS.json");
  Args args({"--smoke", "--check"});
  bench::Run run(args.argc(), args.argv(), "demo", path);
  run.row("summary").num("x", 1);
  run.check("holds", true);
  EXPECT_EQ(run.finish(), 0);
  EXPECT_EQ(slurp(path), run.json() + "\n");
}

TEST(BenchUtil, FailedCheckFailsOnlyUnderCheck) {
  const std::string path = temp_path("BENCH_FAIL.json");
  {
    Args args({"--check"});
    bench::Run run(args.argc(), args.argv(), "demo", path);
    run.check("gate", false, "measured 1, need 2");
    EXPECT_EQ(run.finish(), 1);
  }
  {
    Args args({});
    bench::Run run(args.argc(), args.argv(), "demo", path);
    run.check("gate", false, "measured 1, need 2");
    EXPECT_EQ(run.finish(), 0);
    EXPECT_NE(slurp(path).find(R"({"name":"gate","ok":false,)"),
              std::string::npos);
  }
}

TEST(BenchUtil, UnwritablePathFails) {
  Args args({});
  bench::Run run(args.argc(), args.argv(), "demo",
                 temp_path("no-such-directory/BENCH_DEMO.json"));
  run.check("holds", true);
  EXPECT_NE(run.finish(), 0);
}

TEST(BenchUtilDeathTest, UnknownFlagPrintsUsageAndExits2) {
  Args args({"--smoke", "--chekc"});
  EXPECT_EXIT(
      bench::Run(args.argc(), args.argv(), "demo", temp_path("x.json")),
      ::testing::ExitedWithCode(2), "usage: bench_demo");
}

}  // namespace
