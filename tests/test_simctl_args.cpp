// Tests for simctl's shared argument helpers (tools/simctl_args.hpp):
// the numeric-axis grammar — including the regression for the
// floating-point endpoint-skip bug — the JSON spec-file lowering, and
// the `simctl run` command line (SimctlRun): the spec each flag yields,
// repeats and spec-file overrides, the sweep's spec order and shard
// ownership, and the scope rejections.
#include "simctl_args.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

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


// ---- simctl run's command line ------------------------------------------

std::string joined(const std::vector<std::string>& args) {
  std::string out;
  for (const std::string& arg : args) out += (out.empty() ? "" : " ") + arg;
  return out;
}

// A command line, and the fields it sets on a default spec.
struct FlagCase {
  std::vector<std::string> args;
  void (*expect)(SimSpec&);
};

const FlagCase kFlagCases[] = {
    {{"--driver", "netsim_des"},
     [](SimSpec& s) { s.driver = SimDriverKind::NetsimDes; }},
    {{"--driver", "skpd_loopback"},
     [](SimSpec& s) { s.driver = SimDriverKind::SkpdLoopback; }},
    {{"--workload", "trace_text"},
     [](SimSpec& s) { s.workload.kind = SimWorkloadKind::TraceText; }},
    {{"--n-items", "37"}, [](SimSpec& s) { s.workload.n_items = 37; }},
    {{"--policy", "kp"}, [](SimSpec& s) { s.policy = PrefetchPolicy::KP; }},
    {{"--sub", "ds"}, [](SimSpec& s) { s.sub = SubArbitration::DS; }},
    {{"--delta", "paper"},
     [](SimSpec& s) { s.delta_rule = DeltaRule::PaperTail; }},
    {{"--predictor", "depgraph"},
     [](SimSpec& s) { s.predictor = PredictorKind::DependencyWindow; }},
    {{"--driver", "scenario", "--replacement", "random"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::Scenario;
       s.replacement = ReplacementKind::Random;
     }},
    {{"--driver", "scenario", "--pr"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::Scenario;
       s.pr_planning = true;
     }},
    {{"--cache-size", "17"}, [](SimSpec& s) { s.cache_size = 17; }},
    {{"--sized-capacity", "42.5"}, [](SimSpec& s) { s.sized_capacity = 42.5; }},
    {{"--size-per-r", "0"}, [](SimSpec& s) { s.size_per_r = 0.0; }},
    {{"--requests", "123"}, [](SimSpec& s) { s.requests = 123; }},
    {{"--warmup", "9"}, [](SimSpec& s) { s.warmup = 9; }},
    {{"--seed", "18446744073709551615"},
     [](SimSpec& s) { s.seed = 18446744073709551615ULL; }},
    {{"--driver", "netsim_des", "--bandwidth", "2.5"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.bandwidth = 2.5;
     }},
    {{"--driver", "netsim_des", "--latency", "0.75"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.latency = 0.75;
     }},
    {{"--threshold", "1.5"},
     [](SimSpec& s) { s.min_profit_threshold = 1.5; }},
    {{"--min-prob", "0.03"}, [](SimSpec& s) { s.predictor_min_prob = 0.03; }},
    {{"--driver", "netsim_des", "--predictor-warmup", "11"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.predictor_warmup = 11;
     }},
    {{"--driver", "multi_client", "--clients", "5"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.clients = 5;
     }},
    {{"--driver", "multi_client", "--link-speedup", "3"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.link_speedup = 3.0;
     }},
    {{"--driver", "multi_client", "--phase-align", "0.25"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.phase_align = 0.25;
     }},
    {{"--driver", "multi_client", "--churn-period", "40"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.churn_period = 40.0;
     }},
    {{"--driver", "multi_client", "--churn-downtime", "8"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.churn_downtime = 8.0;
     }},
    {{"--driver", "multi_client", "--clients", "3", "--client-predictors",
      "ppm,inherit,depgraph"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.clients = 3;
       s.multi_client.overrides.resize(3);
       s.multi_client.overrides[0].predictor = PredictorKind::Ppm;
       s.multi_client.overrides[2].predictor =
           PredictorKind::DependencyWindow;
     }},
    {{"--driver", "netsim_des", "--link-phases", "200:1:0,50:0.25:2"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.link_schedule = {{200.0, 1.0, 0.0}, {50.0, 0.25, 2.0}};
     }},
    {{"--driver", "netsim_des", "--fail-rate", "0.1"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.fault.fail_rate = 0.1;
     }},
    {{"--driver", "multi_client", "--stall-rate", "0.2"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.fault.stall_rate = 0.2;
     }},
    {{"--driver", "netsim_des", "--stall-factor", "3"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.fault.stall_factor = 3.0;
     }},
    {{"--driver", "netsim_des", "--timeout", "7"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.fault.timeout = 7.0;
     }},
    {{"--driver", "netsim_des", "--retry", "3:0.5:2.5:0.1"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.fault.retry = {3, 0.5, 2.5, 0.1};
     }},
    {{"--driver", "netsim_des", "--overload"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.enabled = true;
     }},
    {{"--driver", "netsim_des", "--overload-window", "16"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.window = 16;
     }},
    {{"--driver", "netsim_des", "--overload-degrade", "1.7"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.degrade_ratio = 1.7;
     }},
    {{"--driver", "netsim_des", "--overload-recover", "1.1"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.recover_ratio = 1.1;
     }},
    {{"--driver", "netsim_des", "--overload-recover-windows", "5"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.recover_windows = 5;
     }},
    {{"--driver", "netsim_des", "--overload-depth", "2"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.lookahead_depth = 2;
     }},
    {{"--driver", "netsim_des", "--overload-budget", "6"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::NetsimDes;
       s.overload.budget_items = 6;
     }},
    {{"--driver", "multi_client", "--deadline", "12"},
     [](SimSpec& s) {
       s.driver = SimDriverKind::MultiClientDes;
       s.deadline = 12.0;
     }},
    {{"--workload", "iid", "--method", "flat"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::Iid;
       s.workload.method = ProbMethod::Flat;
     }},
    {{"--workload", "iid", "--skew-exponent", "4"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::Iid;
       s.workload.skew_exponent = 4.0;
     }},
    {{"--workload", "zipf", "--zipf-s", "1.3"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::Zipf;
       s.workload.zipf_exponent = 1.3;
     }},
    {{"--workload", "zipf", "--no-zipf-shuffle"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::Zipf;
       s.workload.zipf_shuffle = false;
     }},
    {{"--workload", "markov_drift", "--drift-period", "500"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::MarkovDrift;
       s.workload.drift_period = 500;
     }},
    {{"--workload", "adversarial", "--adv-hot-set", "6"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::Adversarial;
       s.workload.adv_hot_set = 6;
     }},
    {{"--workload", "adversarial", "--adv-escape", "0.05"},
     [](SimSpec& s) {
       s.workload.kind = SimWorkloadKind::Adversarial;
       s.workload.adv_escape = 0.05;
     }},
    {{"--out-degree", "3:7"},
     [](SimSpec& s) {
       s.workload.out_degree_lo = 3;
       s.workload.out_degree_hi = 7;
     }},
    {{"--viewing", "5:50.5"},
     [](SimSpec& s) {
       s.workload.v_lo = 5.0;
       s.workload.v_hi = 50.5;
     }},
    {{"--retrieval", "2:20"},
     [](SimSpec& s) {
       s.workload.r_lo = 2.0;
       s.workload.r_hi = 20.0;
     }},
    {{"--no-plan-cache"}, [](SimSpec& s) { s.use_plan_cache = false; }},
};

TEST(SimctlRun, EveryFlagSetsItsSpecField) {
  for (const FlagCase& c : kFlagCases) {
    SimSpec want;
    c.expect(want);
    const std::optional<RunPlan> plan = parse_run(c.args);
    ASSERT_TRUE(plan) << joined(c.args);
    EXPECT_EQ(plan->sweep_size, 1u) << joined(c.args);
    ASSERT_EQ(plan->owned.size(), 1u) << joined(c.args);
    EXPECT_EQ(plan->owned[0].first, 0u);
    EXPECT_TRUE(plan->owned[0].second == want) << joined(c.args);
  }
}

// An axis flag, and the fields its point i sets on a default spec.
struct AxisCase {
  std::vector<std::string> args;
  std::size_t points;
  void (*expect)(SimSpec&, std::size_t);
};

const AxisCase kAxisCases[] = {
    {{"--cache-sizes", "4,8"}, 2,
     [](SimSpec& s, std::size_t i) { s.cache_size = 4 + 4 * i; }},
    {{"--seeds", "3:7:2"}, 3,
     [](SimSpec& s, std::size_t i) { s.seed = 3 + 2 * i; }},
    {{"--thresholds", "0:1:0.5"}, 3,
     [](SimSpec& s, std::size_t i) {
       s.min_profit_threshold = 0.5 * static_cast<double>(i);
     }},
    {{"--policies", "none,perfect"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.policy = i == 0 ? PrefetchPolicy::None : PrefetchPolicy::Perfect;
     }},
    {{"--subs", "lfu,none"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.sub = i == 0 ? SubArbitration::LFU : SubArbitration::None;
     }},
    {{"--predictors", "markov1,ppm"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.predictor = i == 0 ? PredictorKind::Markov1 : PredictorKind::Ppm;
     }},
    {{"--driver", "scenario", "--replacements", "fifo,lfu"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.driver = SimDriverKind::Scenario;
       s.replacement = i == 0 ? ReplacementKind::FIFO : ReplacementKind::LFU;
     }},
    {{"--driver", "multi_client", "--client-counts", "2,6"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.clients = 2 + 4 * i;
     }},
    {{"--driver", "multi_client", "--link-speedups", "1,4"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.driver = SimDriverKind::MultiClientDes;
       s.multi_client.link_speedup = 1.0 + 3.0 * static_cast<double>(i);
     }},
    {{"--driver", "netsim_des", "--fail-rates", "0,0.3"}, 2,
     [](SimSpec& s, std::size_t i) {
       s.driver = SimDriverKind::NetsimDes;
       s.fault.fail_rate = i == 0 ? 0.0 : 0.3;
     }},
};

TEST(SimctlRun, EveryAxisYieldsItsPointsInOrder) {
  for (const AxisCase& c : kAxisCases) {
    const std::optional<RunPlan> plan = parse_run(c.args);
    ASSERT_TRUE(plan) << joined(c.args);
    EXPECT_EQ(plan->sweep_size, c.points) << joined(c.args);
    ASSERT_EQ(plan->owned.size(), c.points) << joined(c.args);
    for (std::size_t i = 0; i < c.points; ++i) {
      SimSpec want;
      c.expect(want, i);
      EXPECT_EQ(plan->owned[i].first, i);
      EXPECT_TRUE(plan->owned[i].second == want)
          << joined(c.args) << " point " << i;
    }
  }
}

TEST(SimctlRun, ExecutionFlagsFillThePlan) {
  const std::optional<RunPlan> plan = parse_run(
      {"--driver", "multi_client", "--shard", "0/3", "--csv", "out.csv",
       "--per-client-csv", "pc.csv", "--threads", "7"});
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->shard_index, 0u);
  EXPECT_EQ(plan->shard_count, 3u);
  EXPECT_EQ(plan->csv_path, "out.csv");
  EXPECT_EQ(plan->per_client_csv_path, "pc.csv");
  EXPECT_EQ(plan->threads, 7u);
  // Shard 0 of 3 owns the single spec; the defaults write to stdout.
  EXPECT_EQ(plan->owned.size(), 1u);
  const std::optional<RunPlan> plain = parse_run({});
  ASSERT_TRUE(plain);
  EXPECT_EQ(plain->shard_index, 0u);
  EXPECT_EQ(plain->shard_count, 1u);
  EXPECT_FALSE(plain->csv_path);
  EXPECT_FALSE(plain->per_client_csv_path);
  EXPECT_EQ(plain->threads, 0u);
  EXPECT_TRUE(plain->owned.at(0).second == SimSpec{});
}

TEST(SimctlRun, HelpEndsTheParse) {
  EXPECT_FALSE(parse_run({"--help"}));
  EXPECT_FALSE(parse_run({"-h"}));
  // Nothing after --help is read, and scope is checked only once the
  // whole line is read.
  EXPECT_FALSE(parse_run({"--cache-size", "3", "--help", "--bogus"}));
  EXPECT_FALSE(parse_run({"--zipf-s", "1", "--help"}));
  // A bad flag before --help is still rejected.
  EXPECT_THROW(parse_run({"--bogus", "--help"}), std::invalid_argument);
}

TEST(SimctlRun, TheLastRepeatWins) {
  SimSpec want;
  want.driver = SimDriverKind::NetsimDes;
  want.cache_size = 9;
  std::optional<RunPlan> plan =
      parse_run({"--cache-size", "3", "--driver", "scenario", "--cache-size",
                 "9", "--driver", "netsim_des"});
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->owned.size(), 1u);
  EXPECT_TRUE(plan->owned[0].second == want);

  // An axis given twice keeps its last list.
  plan = parse_run({"--seeds", "1,2,3", "--seeds", "5,6"});
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->owned.size(), 2u);
  EXPECT_EQ(plan->owned[0].second.seed, 5u);
  EXPECT_EQ(plan->owned[1].second.seed, 6u);

  // So does --client-predictors, checked against the last --clients.
  plan = parse_run({"--driver", "multi_client", "--client-predictors", "ppm",
                    "--clients", "1", "--client-predictors", "lz78,inherit",
                    "--clients", "2"});
  ASSERT_TRUE(plan);
  const MultiClientSpec& mc = plan->owned.at(0).second.multi_client;
  ASSERT_EQ(mc.overrides.size(), 2u);
  EXPECT_EQ(mc.overrides[0].predictor, PredictorKind::Lz78);
  EXPECT_EQ(mc.overrides[1].predictor, std::nullopt);
  EXPECT_THROW(parse_run({"--driver", "multi_client", "--clients", "2",
                          "--client-predictors", "ppm,lz78", "--clients",
                          "3"}),
               std::invalid_argument);

  // A switch given twice is still on.
  plan = parse_run({"--no-plan-cache", "--no-plan-cache"});
  ASSERT_TRUE(plan);
  EXPECT_FALSE(plan->owned.at(0).second.use_plan_cache);
}

TEST(SimctlRun, FlagsAfterASpecFileOverrideIt) {
  // What `simctl run --requests 80 --spec FILE --cache-size 7 --seeds 9`
  // reads once the file is expanded in place.
  std::vector<std::string> args = {"--requests", "80"};
  const std::vector<std::string> lowered = spec_file_to_flags(R"({
    "base": {"driver": "netsim_des", "cache_size": 5, "requests": 50},
    "axes": {"seeds": [1, 2], "policies": ["kp", "skp"]}
  })");
  args.insert(args.end(), lowered.begin(), lowered.end());
  args.insert(args.end(), {"--cache-size", "7", "--seeds", "9"});
  const std::optional<RunPlan> plan = parse_run(args);
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->owned.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SimSpec want;
    want.driver = SimDriverKind::NetsimDes;
    want.requests = 50;
    want.cache_size = 7;
    want.seed = 9;
    want.policy = i == 0 ? PrefetchPolicy::KP : PrefetchPolicy::SKP;
    EXPECT_TRUE(plan->owned[i].second == want) << i;
  }
}

TEST(SimctlRun, SweepNestsSeedsOutermostAndFailRatesInnermost) {
  // The axes are given in an order unlike the nesting one: the spec
  // index depends on the nesting alone.
  const std::vector<std::string> args = {
      "--fail-rates", "0,0.2",      "--cache-sizes", "4,8,12",
      "--driver",     "netsim_des", "--predictors",  "oracle,markov1",
      "--seeds",      "1,2"};
  std::vector<SimSpec> want;
  for (const std::uint64_t seed : {1, 2}) {
    for (const PredictorKind predictor :
         {PredictorKind::Oracle, PredictorKind::Markov1}) {
      for (const std::size_t cache_size : {4, 8, 12}) {
        for (const double fail_rate : {0.0, 0.2}) {
          SimSpec s;
          s.driver = SimDriverKind::NetsimDes;
          s.seed = seed;
          s.predictor = predictor;
          s.cache_size = cache_size;
          s.fault.fail_rate = fail_rate;
          want.push_back(s);
        }
      }
    }
  }
  const std::optional<RunPlan> plan = parse_run(args);
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->sweep_size, 24u);
  ASSERT_EQ(plan->owned.size(), 24u);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(plan->owned[i].first, i);
    EXPECT_TRUE(plan->owned[i].second == want[i]) << i;
  }

  // Shard 1 of 3 owns indices 1, 4, ..., 22 of the same sweep.
  std::vector<std::string> sharded = args;
  sharded.insert(sharded.end(), {"--shard", "1/3"});
  const std::optional<RunPlan> shard = parse_run(sharded);
  ASSERT_TRUE(shard);
  EXPECT_EQ(shard->sweep_size, 24u);
  ASSERT_EQ(shard->owned.size(), 8u);
  for (std::size_t k = 0; k < shard->owned.size(); ++k) {
    EXPECT_EQ(shard->owned[k].first, 1 + 3 * k);
    EXPECT_TRUE(shard->owned[k].second == want[1 + 3 * k]) << k;
  }
}

TEST(SimctlRun, ChecksTheProductBeforeDecodingAnySpec) {
  EXPECT_THROW(parse_run({"--seeds", "1:256:1", "--cache-sizes", "1:257:1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_run({"--seeds", "1:256:1", "--cache-sizes", "1:256:1",
                          "--policies", "kp,skp"}),
               std::invalid_argument);
  // A product at the bound is accepted; this shard owns one spec of it.
  const std::optional<RunPlan> plan =
      parse_run({"--seeds", "1:256:1", "--cache-sizes", "1:256:1",
                 "--shard", "257/65536"});
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->sweep_size, kMaxSweepSpecs);
  ASSERT_EQ(plan->owned.size(), 1u);
  EXPECT_EQ(plan->owned[0].first, 257u);
  EXPECT_EQ(plan->owned[0].second.seed, 2u);
  EXPECT_EQ(plan->owned[0].second.cache_size, 2u);
}

TEST(SimctlRun, RejectsFlagsOutsideTheirScope) {
  const std::vector<std::vector<std::string>> rejected = {
      {"--drift-period", "50"},
      {"--zipf-s", "1.2"},
      {"--no-zipf-shuffle"},
      {"--method", "flat"},
      {"--skew-exponent", "3"},
      {"--adv-hot-set", "4"},
      {"--adv-escape", "0.1"},
      {"--clients", "3"},
      {"--link-speedup", "2"},
      {"--phase-align", "0.5"},
      {"--churn-period", "10"},
      {"--churn-downtime", "5"},
      {"--client-predictors", "ppm"},
      {"--client-counts", "2,3"},
      {"--link-speedups", "1,2"},
      {"--driver", "scenario", "--link-phases", "10:1:0"},
      {"--replacements", "lru,fifo"},
      {"--fail-rate", "0.1"},
      {"--stall-rate", "0.1"},
      {"--stall-factor", "3"},
      {"--timeout", "5"},
      {"--retry", "3"},
      {"--overload"},
      {"--overload-window", "8"},
      {"--overload-degrade", "2"},
      {"--overload-recover", "1.1"},
      {"--overload-recover-windows", "2"},
      {"--overload-depth", "2"},
      {"--overload-budget", "2"},
      {"--deadline", "10"},
      {"--driver", "scenario", "--fail-rates", "0,0.1"},
      {"--per-client-csv", "pc.csv"},
      {"--replacement", "fifo"},
      {"--pr"},
      // The scope is the last --driver's or --workload's.
      {"--driver", "multi_client", "--clients", "3", "--driver",
       "netsim_des"},
      {"--workload", "zipf", "--zipf-s", "1.2", "--workload", "markov"},
      // --client-predictors is sized to one fixed client count.
      {"--driver", "multi_client", "--clients", "3", "--client-predictors",
       "ppm,lz78"},
      {"--driver", "multi_client", "--clients", "2", "--client-predictors",
       "ppm,lz78", "--client-counts", "2"},
  };
  for (const std::vector<std::string>& args : rejected) {
    EXPECT_THROW(parse_run(args), std::invalid_argument) << joined(args);
  }
  // A scoped flag may come before the flag that puts it in scope.
  EXPECT_TRUE(parse_run({"--clients", "3", "--driver", "multi_client"}));
  EXPECT_TRUE(parse_run({"--zipf-s", "1.2", "--workload", "zipf"}));
  // --sub has no parse-time scope: a sub without --pr is a rule of the
  // scenario driver, which rejects it once the sweep runs.
  EXPECT_TRUE(parse_run({"--driver", "scenario", "--sub", "lfu"}));
}

TEST(SimctlRun, SkpdLoopbackTakesTheDesFlags) {
  // The daemon's stepper runs faults, and the registry says so.
  SimSpec want;
  want.driver = SimDriverKind::SkpdLoopback;
  want.fault.fail_rate = 0.1;
  const std::optional<RunPlan> plan =
      parse_run({"--driver", "skpd_loopback", "--fail-rate", "0.1"});
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->owned.size(), 1u);
  EXPECT_TRUE(plan->owned[0].second == want);
}

TEST(SimctlRun, SectionFlagsParseUnderTheDriversThatReadThem) {
  // Each pinned line above that uses a section's flags, re-run under
  // every driver: it parses exactly when the driver's registry row reads
  // every section the line touches.
  std::vector<std::vector<std::string>> lines;
  for (const FlagCase& c : kFlagCases) lines.push_back(c.args);
  for (const AxisCase& c : kAxisCases) lines.push_back(c.args);
  for (std::vector<std::string> args : lines) {
    if (args.size() >= 2 && args[0] == "--driver") {
      args.erase(args.begin(), args.begin() + 2);
    }
    std::vector<SpecSection> touched;
    for (const std::string& arg : args) {
      const RunFlag* flag = find_run_flag(arg);
      if (flag && flag->scope.section) touched.push_back(*flag->scope.section);
    }
    if (touched.empty()) continue;
    for (const SimDriver& driver : driver_registry()) {
      std::vector<std::string> line = {"--driver", driver.name};
      line.insert(line.end(), args.begin(), args.end());
      if (std::ranges::all_of(touched, [&](SpecSection section) {
            return driver.reads(section);
          })) {
        EXPECT_TRUE(parse_run(line)) << joined(line);
      } else {
        EXPECT_THROW(parse_run(line), std::invalid_argument) << joined(line);
      }
    }
  }
}

TEST(SimctlRun, RejectsMalformedLines) {
  const std::vector<std::vector<std::string>> rejected = {
      {"--bogus"},
      {"--cache-size"},
      {"--cache-size", "1.5"},
      {"--driver", "bogus"},
      {"--workload", "bogus"},
      {"--threshold", "inf"},
      {"--out-degree", "2"},
      {"--viewing", "5:x"},
      {"--driver", "netsim_des", "--retry", "3:1:2:0.1:9"},
      {"--driver", "multi_client", "--clients", "2", "--client-predictors",
       "ppm,bogus"},
      {"--driver", "multi_client", "--client-predictors", ""},
      // An empty item or an empty list is refused in every list.
      {"--policies", "kp,"},
      {"--policies", ""},
      {"--seeds", "1,"},
      {"--seeds", ""},
      {"--replacements", ""},
      {"--driver", "scenario", "--replacements", ""},
      // Every axis token is read, whichever specs this shard owns.
      {"--policies", "kp,bogus", "--shard", "0/2"},
      {"--seeds", "0:18446744073709551615:1"},
      {"--shard", "3/3"},
      {"--shard", "2"},
      {"--threads", "1025"},
  };
  for (const std::vector<std::string>& args : rejected) {
    EXPECT_THROW(parse_run(args), std::invalid_argument) << joined(args);
  }
}

// True when `text` holds `word` with no name character on either side.
bool names_word(const std::string& text, const std::string& word) {
  const auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-';
  };
  for (std::size_t at = text.find(word); at != std::string::npos;
       at = text.find(word, at + 1)) {
    const std::size_t end = at + word.size();
    if ((at == 0 || !name_char(text[at - 1])) &&
        (end == text.size() || !name_char(text[end]))) {
      return true;
    }
  }
  return false;
}

TEST(SimctlRun, UsageNamesEveryFlagTokenAndDriver) {
  const std::string usage = run_flags_usage();
  for (const RunFlag& flag : kRunFlags) {
    EXPECT_TRUE(names_word(usage, flag.name)) << flag.name;
  }
  const auto expect_tokens = [&](const auto& table) {
    for (const auto& entry : table) {
      EXPECT_TRUE(names_word(usage, entry.token)) << entry.token;
    }
  };
  expect_tokens(kWorkloadTokens);
  expect_tokens(kProbMethodTokens);
  expect_tokens(kPolicyTokens);
  expect_tokens(kSubTokens);
  expect_tokens(kDeltaTokens);
  expect_tokens(kPredictorTokens);
  expect_tokens(kReplacementTokens);
  for (const SimDriver& driver : driver_registry()) {
    EXPECT_TRUE(names_word(usage, driver.name)) << driver.name;
  }
}

TEST(SimctlRun, EveryTableRowIsPinned) {
  // Each spec and axis row has a case above; the execution rows have
  // ExecutionFlagsFillThePlan.
  std::vector<std::string> pinned;
  for (const FlagCase& c : kFlagCases) {
    pinned.insert(pinned.end(), c.args.begin(), c.args.end());
  }
  for (const AxisCase& c : kAxisCases) {
    pinned.insert(pinned.end(), c.args.begin(), c.args.end());
  }
  std::vector<std::size_t> nests;
  for (const RunFlag& flag : kRunFlags) {
    if (flag.section == FlagSection::Execution) continue;
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), flag.name),
              pinned.end())
        << flag.name;
    if (flag.section == FlagSection::Axis) nests.push_back(flag.nest);
  }
  // The axes' nesting positions are 0, 1, ... each once.
  std::sort(nests.begin(), nests.end());
  for (std::size_t i = 0; i < nests.size(); ++i) EXPECT_EQ(nests[i], i);
}
}  // namespace
}  // namespace skp::simctl
