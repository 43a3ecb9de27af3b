// Tests for simctl's shared argument helpers (tools/simctl_args.hpp):
// the numeric-axis grammar — including the regression for the
// floating-point endpoint-skip bug — and the JSON spec-file lowering.
#include "simctl_args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace skp::simctl {
namespace {

TEST(SimctlAxis, DecimalStepHitsInclusiveEndpoint) {
  // Regression: repeated `x += step` accumulation made 0:1:0.1 yield 10
  // points (1.0 skipped when the running sum landed at 1.0000000000000002
  // > hi + 1e-12). Index-based expansion with a half-step tolerance must
  // produce all 11.
  const auto axis = parse_numeric_axis("0:1:0.1", "--thresholds");
  ASSERT_EQ(axis.size(), 11u);
  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_NEAR(axis[i], 0.1 * static_cast<double>(i), 1e-12) << i;
  }
  EXPECT_EQ(axis.back(), 1.0);  // exactly 10 * 0.1 in double — no drift
}

TEST(SimctlAxis, DecimalStepsDoNotAccumulateError) {
  // 0.1+0.1+... accumulates upward; lo + i*step stays within one
  // rounding of the exact grid even far from the origin.
  const auto axis = parse_numeric_axis("0:10:0.1", "--thresholds");
  ASSERT_EQ(axis.size(), 101u);
  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_NEAR(axis[i], 0.1 * static_cast<double>(i), 1e-9) << i;
  }
  // The historical failure mode: value 30 * 0.1 printed as
  // 0.30000000000000004 under accumulation; multiplication rounds to the
  // nearest double of 3.0 exactly at this magnitude.
  EXPECT_EQ(axis[30], 30 * 0.1);  // one multiply's rounding, not a sum's
  EXPECT_EQ(axis[50], 5.0);
}

TEST(SimctlAxis, HalfStepEndpointTolerance) {
  // An off-grid HI snaps to the nearest grid point: 0.99 is ~2.48 steps
  // of 0.4 from 0, rounding down — the axis must not run past HI.
  const auto axis = parse_numeric_axis("0:0.99:0.4", "--x");
  ASSERT_EQ(axis.size(), 3u);  // 0, 0.4, 0.8
  EXPECT_NEAR(axis.back(), 0.8, 1e-12);
  // A HI within half a step ABOVE the grid keeps its endpoint even when
  // rounding pushes the computed value a hair past it.
  const auto above = parse_numeric_axis("0:1.1:0.4", "--x");
  ASSERT_EQ(above.size(), 4u);  // 0, 0.4, 0.8, ~1.2
  EXPECT_NEAR(above.back(), 1.2, 1e-12);
  // ...and a HI a hair BELOW the grid endpoint still includes it — the
  // failure mode the old accumulating loop hit on clean decimal inputs.
  const auto below = parse_numeric_axis("0:0.9999999:0.1", "--x");
  ASSERT_EQ(below.size(), 11u);
  // Exact half-step ties round DOWN: 1:10:2 is 4.5 steps and must stop
  // at 9, never sweep 11 past HI.
  const auto tie = parse_numeric_axis("1:10:2", "--x");
  ASSERT_EQ(tie.size(), 5u);
  EXPECT_EQ(tie.back(), 9.0);
  // Degenerate single-point range.
  const auto point = parse_numeric_axis("3:3:1", "--x");
  ASSERT_EQ(point.size(), 1u);
  EXPECT_EQ(point[0], 3.0);
}

TEST(SimctlAxis, ListsAndSingletonsAndErrors) {
  const auto axis = parse_numeric_axis("1,5,2:4:1", "--x");
  ASSERT_EQ(axis.size(), 5u);
  EXPECT_EQ(axis[0], 1.0);
  EXPECT_EQ(axis[1], 5.0);
  EXPECT_EQ(axis[2], 2.0);
  EXPECT_EQ(axis[4], 4.0);
  EXPECT_THROW(parse_numeric_axis("", "--x"), std::invalid_argument);
  EXPECT_THROW(parse_numeric_axis("1:0:1", "--x"), std::invalid_argument);
  EXPECT_THROW(parse_numeric_axis("0:1:0", "--x"), std::invalid_argument);
  EXPECT_THROW(parse_numeric_axis("1:2", "--x"), std::invalid_argument);
  EXPECT_THROW(parse_numeric_axis("abc", "--x"), std::invalid_argument);
}

TEST(SimctlAxis, IntegerAxisInclusiveAndWrapSafe) {
  const auto axis = parse_integer_axis("1:9:2", "--seeds");
  ASSERT_EQ(axis.size(), 5u);
  EXPECT_EQ(axis.back(), 9u);
  // Top-of-range step must not wrap around.
  const auto top = parse_integer_axis("18446744073709551613:"
                                      "18446744073709551615:2",
                                      "--seeds");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top.back(), 18446744073709551615ULL);
  EXPECT_THROW(parse_integer_axis("-1", "--seeds"), std::invalid_argument);
  EXPECT_THROW(parse_integer_axis("1:2:0", "--seeds"),
               std::invalid_argument);
}

TEST(SimctlAxis, RejectsAxesPastTheSweepBound) {
  // Each is refused from its point count, before a point is pushed: the
  // first would push 2^64 seeds, and the second casts 1e300 steps to
  // size_t.
  EXPECT_THROW(parse_integer_axis("0:18446744073709551615:1", "--seeds"),
               std::invalid_argument);
  EXPECT_THROW(parse_numeric_axis("0:1:1e-300", "--thresholds"),
               std::invalid_argument);
  // A range whose width overflows to infinity.
  EXPECT_THROW(parse_numeric_axis("-1e308:1e308:1", "--thresholds"),
               std::invalid_argument);
  // The bound counts points across every token of the axis.
  EXPECT_EQ(parse_integer_axis("1:65536:1", "--seeds").size(),
            kMaxSweepSpecs);
  EXPECT_THROW(parse_integer_axis("1:65536:1,7", "--seeds"),
               std::invalid_argument);
  EXPECT_THROW(parse_integer_axis("0:65536:1", "--seeds"),
               std::invalid_argument);
  EXPECT_EQ(parse_numeric_axis("1:65536:1", "--x").size(), kMaxSweepSpecs);
  EXPECT_THROW(parse_numeric_axis("7,1:65536:1", "--x"),
               std::invalid_argument);
}

TEST(SimctlSweep, RejectsCrossProductsPastTheBound) {
  // An empty axis stands for the base spec's one value.
  EXPECT_EQ(sweep_size({}), 1u);
  EXPECT_EQ(sweep_size({2, 0, 3}), 6u);
  EXPECT_EQ(sweep_size({256, 256}), kMaxSweepSpecs);
  EXPECT_THROW(sweep_size({256, 257}), std::invalid_argument);
  // Ten full axes: the product is refused as soon as it passes the bound.
  EXPECT_THROW(sweep_size({kMaxSweepSpecs, kMaxSweepSpecs, kMaxSweepSpecs,
                           kMaxSweepSpecs, kMaxSweepSpecs, kMaxSweepSpecs,
                           kMaxSweepSpecs, kMaxSweepSpecs, kMaxSweepSpecs,
                           kMaxSweepSpecs}),
               std::invalid_argument);
}

TEST(SimctlThreads, RejectsCountsPastTheCap) {
  // Parsing only: no pool is built here.
  EXPECT_EQ(parse_thread_count("0", "--threads"), 0u);
  EXPECT_EQ(parse_thread_count("1024", "--threads"), kMaxThreads);
  EXPECT_THROW(parse_thread_count(std::to_string(kMaxThreads + 1),
                                  "--threads"),
               std::invalid_argument);
  EXPECT_THROW(parse_thread_count("18446744073709551615", "--threads"),
               std::invalid_argument);
}

TEST(SimctlDouble, RejectsNonFiniteValues) {
  // Regression: std::stod happily parses "inf"/"nan" (any sign or case),
  // and a `--threshold inf` used to lower into a spec that ran a whole
  // sweep of garbage before any validator noticed.
  for (const char* bad : {"inf", "Inf", "INF", "+inf", "-inf", "infinity",
                          "nan", "NaN", "NAN", "-nan"}) {
    EXPECT_THROW(parse_double(bad, "--threshold"), std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(parse_double("2.5", "--threshold"), 2.5);
  EXPECT_EQ(parse_double("-3", "--threshold"), -3.0);
  // ...and the axis grammar inherits the rejection.
  EXPECT_THROW(parse_numeric_axis("0.1,inf", "--thresholds"),
               std::invalid_argument);
  EXPECT_THROW(parse_numeric_axis("0:nan:1", "--thresholds"),
               std::invalid_argument);
}

TEST(SimctlLinkSchedule, ParsesPhaseTriples) {
  const auto sched = parse_link_schedule("200:1:0,50:0.25:2",
                                         "--link-phases");
  ASSERT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched[0].duration, 200.0);
  EXPECT_EQ(sched[0].bandwidth, 1.0);
  EXPECT_EQ(sched[0].latency, 0.0);
  EXPECT_EQ(sched[1].duration, 50.0);
  EXPECT_EQ(sched[1].bandwidth, 0.25);
  EXPECT_EQ(sched[1].latency, 2.0);
}

TEST(SimctlLinkSchedule, RejectsMalformedPhases) {
  EXPECT_THROW(parse_link_schedule("", "--link-phases"),
               std::invalid_argument);
  EXPECT_THROW(parse_link_schedule("200:1", "--link-phases"),
               std::invalid_argument);
  EXPECT_THROW(parse_link_schedule("200:1:0:9", "--link-phases"),
               std::invalid_argument);
  EXPECT_THROW(parse_link_schedule("0:1:0", "--link-phases"),
               std::invalid_argument);  // zero duration
  EXPECT_THROW(parse_link_schedule("200:0:0", "--link-phases"),
               std::invalid_argument);  // zero bandwidth
  EXPECT_THROW(parse_link_schedule("200:1:-1", "--link-phases"),
               std::invalid_argument);  // negative latency
  EXPECT_THROW(parse_link_schedule("inf:1:0", "--link-phases"),
               std::invalid_argument);  // non-finite duration
}

TEST(SimctlSpecFile, LowersBaseAxesAndExecutionMembers) {
  const auto flags = spec_file_to_flags(R"({
    "base": {"driver": "netsim_des", "n_items": 24, "min_prob": 0.02,
             "no_plan_cache": true, "pr": false},
    "axes": {"predictors": ["oracle", "markov1"], "seeds": "1:3:1",
             "cache_sizes": [6, 12]},
    "shard": "0/2",
    "csv": "out.csv",
    "threads": 4
  })");
  const std::vector<std::string> expected = {
      "--driver",     "netsim_des",     "--n-items", "24",
      "--min-prob",   "0.02",           "--no-plan-cache",
      "--predictors", "oracle,markov1", "--seeds",   "1:3:1",
      "--cache-sizes", "6,12",          "--shard",   "0/2",
      "--csv",        "out.csv",        "--threads", "4"};
  EXPECT_EQ(flags, expected);
}

TEST(SimctlSpecFile, NumbersKeepLiteralText) {
  // Seeds above 2^53 must survive without a double round-trip.
  const auto flags = spec_file_to_flags(
      R"({"base": {"seed": 18446744073709551615}})");
  const std::vector<std::string> expected = {"--seed",
                                             "18446744073709551615"};
  EXPECT_EQ(flags, expected);
}

TEST(SimctlSpecFile, LowersHostileWorldMembers) {
  // The hostile-world spec fields lower to the flags of the same name —
  // one grammar for files and the command line.
  const auto flags = spec_file_to_flags(R"({
    "base": {"driver": "multi_client", "workload": "adversarial",
             "adv_hot_set": 8, "adv_escape": 0.02, "phase_align": 0.8,
             "churn_period": 300, "churn_downtime": 50,
             "link_phases": "200:1:0,50:0.25:2"},
    "axes": {"client_counts": [2, 3, 4], "link_speedups": [1, 2]}
  })");
  const std::vector<std::string> expected = {
      "--driver",        "multi_client",
      "--workload",      "adversarial",
      "--adv-hot-set",   "8",
      "--adv-escape",    "0.02",
      "--phase-align",   "0.8",
      "--churn-period",  "300",
      "--churn-downtime", "50",
      "--link-phases",   "200:1:0,50:0.25:2",
      "--client-counts", "2,3,4",
      "--link-speedups", "1,2"};
  EXPECT_EQ(flags, expected);
}

TEST(SimctlSpecFile, LowersMixedPredictorFleets) {
  // A per-client predictor list ("inherit" keeps the base choice)
  // lowers to --client-predictors, which simctl validates against
  // --clients and installs as multi_client overrides.
  const auto flags = spec_file_to_flags(R"({
    "base": {"driver": "multi_client", "clients": 3,
             "client_predictors": ["ppm", "lz78", "inherit"]}
  })");
  const std::vector<std::string> expected = {
      "--driver",            "multi_client",
      "--clients",           "3",
      "--client-predictors", "ppm,lz78,inherit"};
  EXPECT_EQ(flags, expected);
}

TEST(SimctlSpecFile, RejectsBadDocuments) {
  EXPECT_THROW(spec_file_to_flags("[1]"), std::invalid_argument);
  EXPECT_THROW(spec_file_to_flags(R"({"bogus": {}})"),
               std::invalid_argument);
  EXPECT_THROW(spec_file_to_flags(R"({"base": 7})"),
               std::invalid_argument);
  EXPECT_THROW(spec_file_to_flags(R"({"axes": {"seeds": []}})"),
               std::invalid_argument);
  EXPECT_THROW(spec_file_to_flags(R"({"base": {"requests": {}}})"),
               std::invalid_argument);
  EXPECT_THROW(spec_file_to_flags(R"({"shard": 2})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace skp::simctl
