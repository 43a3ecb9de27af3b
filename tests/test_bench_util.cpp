// Unit tests for bench/bench_util.hpp — the CLI shared by every
// figure-reproduction binary. parse_args exits the process on --help and
// on bad input, so those paths run as death tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hpp"

namespace skp::bench {
namespace {

// argv helper: owns mutable copies (argv elements are char*, not const).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "bench_binary");
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(BenchUtil, DefaultsWithNoArguments) {
  Argv a({});
  const BenchArgs args = parse_args(a.argc(), a.argv());
  EXPECT_FALSE(args.full);
  EXPECT_EQ(args.seed, 1u);
  EXPECT_FALSE(args.csv_dir.has_value());
}

TEST(BenchUtil, FullFlag) {
  Argv a({"--full"});
  EXPECT_TRUE(parse_args(a.argc(), a.argv()).full);
}

TEST(BenchUtil, SeedParsesU64) {
  Argv a({"--seed", "18446744073709551615"});  // max u64 round-trips
  EXPECT_EQ(parse_args(a.argc(), a.argv()).seed,
            18446744073709551615ull);
}

TEST(BenchUtil, CsvCapturesDirectory) {
  const std::string dir = ::testing::TempDir();  // exists
  Argv a({"--csv", dir});
  const BenchArgs args = parse_args(a.argc(), a.argv());
  ASSERT_TRUE(args.csv_dir.has_value());
  EXPECT_EQ(*args.csv_dir, dir);
}

TEST(BenchUtil, ThreadsDefaultsToHardware) {
  Argv a({});
  EXPECT_EQ(parse_args(a.argc(), a.argv()).threads, 0u);  // 0 = hw threads
}

TEST(BenchUtil, ThreadsParsesCount) {
  Argv a({"--threads", "7"});
  EXPECT_EQ(parse_args(a.argc(), a.argv()).threads, 7u);
  Argv cap({"--threads", std::to_string(kMaxThreads)});
  EXPECT_EQ(parse_args(cap.argc(), cap.argv()).threads, kMaxThreads);
}

TEST(BenchUtil, PlanCacheOnByDefaultAndSwitchable) {
  Argv on({});
  EXPECT_FALSE(parse_args(on.argc(), on.argv()).no_plan_cache);
  Argv off({"--no-plan-cache"});
  EXPECT_TRUE(parse_args(off.argc(), off.argv()).no_plan_cache);
}

TEST(BenchUtil, AllFlagsCombineInAnyOrder) {
  const std::string dir = ::testing::TempDir();
  Argv a({"--csv", dir, "--threads", "3", "--full", "--seed", "42",
          "--no-plan-cache"});
  const BenchArgs args = parse_args(a.argc(), a.argv());
  EXPECT_TRUE(args.full);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(args.threads, 3u);
  EXPECT_TRUE(args.no_plan_cache);
  ASSERT_TRUE(args.csv_dir.has_value());
  EXPECT_EQ(*args.csv_dir, dir);
}

TEST(BenchUtilDeathTest, UnknownFlagExits2) {
  Argv a({"--bogus"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --bogus");
}

TEST(BenchUtilDeathTest, SeedMissingValueIsRejected) {
  // A trailing --seed has no value; parse_args treats it as unknown input
  // rather than silently defaulting.
  Argv a({"--seed"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --seed");
}

TEST(BenchUtilDeathTest, CsvMissingValueIsRejected) {
  Argv a({"--csv"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --csv");
}

TEST(BenchUtilDeathTest, ThreadsMissingValueIsRejected) {
  Argv a({"--threads"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "unknown argument: --threads");
}

TEST(BenchUtilDeathTest, SeedRejectsNonDigits) {
  // strtoull would have run seed 0.
  Argv a({"--seed", "abc"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--seed expects an unsigned integer, got 'abc'");
}

TEST(BenchUtilDeathTest, SeedRejectsTrailingGarbageAndOverflow) {
  Argv junk({"--seed", "12x"});
  EXPECT_EXIT(parse_args(junk.argc(), junk.argv()),
              ::testing::ExitedWithCode(2), "--seed expects");
  Argv big({"--seed", "18446744073709551616"});  // 2^64
  EXPECT_EXIT(parse_args(big.argc(), big.argv()),
              ::testing::ExitedWithCode(2), "--seed expects");
}

TEST(BenchUtilDeathTest, ThreadsRejectsNegative) {
  // strtoull wraps "-1" to 2^64 - 1, and the sweep pool then died in
  // vector::reserve with an uncaught length_error.
  Argv a({"--threads", "-1"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--threads expects an unsigned integer, got '-1'");
}

TEST(BenchUtilDeathTest, ThreadsRejectsCountPastTheCap) {
  // Refused while parsing: the pool would otherwise start every worker.
  const std::string past = std::to_string(kMaxThreads + 1);
  Argv a({"--threads", past});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--threads: " + past + " exceeds");
}

TEST(BenchUtilDeathTest, ThreadsRejectsEmptyAndNonDigits) {
  Argv empty({"--threads", ""});
  EXPECT_EXIT(parse_args(empty.argc(), empty.argv()),
              ::testing::ExitedWithCode(2), "--threads expects");
  Argv word({"--threads", "four"});
  EXPECT_EXIT(parse_args(word.argc(), word.argv()),
              ::testing::ExitedWithCode(2), "--threads expects");
}

TEST(BenchUtilDeathTest, CsvRejectsMissingDirectory) {
  // Refused at parse time, not after the bench has printed its results.
  const std::string dir = ::testing::TempDir() + "no/such/bench_csv_dir";
  Argv a({"--csv", dir});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "is not an existing directory");
}

TEST(BenchUtilDeathTest, HelpPrintsUsageAndExits0) {
  Argv a({"--help"});
  // Usage goes to stdout (not stderr), so match only the exit status.
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(0), "");
}

TEST(BenchUtilDeathTest, ShortHelpAlsoExits0) {
  Argv a({"-h"});
  EXPECT_EXIT(parse_args(a.argc(), a.argv()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace skp::bench
