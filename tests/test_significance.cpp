#include "util/significance.hpp"

#include <gtest/gtest.h>

#include "sim/prefetch_only.hpp"
#include "util/rng.hpp"

namespace skp {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959964), 0.975, 1e-4);
  EXPECT_NEAR(normal_cdf(-1.959964), 0.025, 1e-4);
  EXPECT_NEAR(normal_cdf(5.0), 1.0, 1e-6);
}

TEST(WelchTTest, RequiresTwoSamplesPerSide) {
  OnlineStats a, b;
  a.add(1.0);
  b.add(2.0);
  b.add(3.0);
  EXPECT_THROW(welch_t_test(a, b), std::invalid_argument);
}

TEST(WelchTTest, SeparatedSamplesAreSignificant) {
  Rng rng(1);
  OnlineStats a, b;
  for (int i = 0; i < 200; ++i) {
    a.add(rng.uniform(0.0, 1.0));
    b.add(rng.uniform(2.0, 3.0));
  }
  const TestResult r = welch_t_test(a, b);
  EXPECT_TRUE(r.significant());
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_NEAR(r.mean_diff, -2.0, 0.1);
}

TEST(WelchTTest, SameDistributionUsuallyNotSignificant) {
  // 100 repetitions at alpha = .05: expect ~5 false positives; bound 20.
  Rng rng(2);
  int false_positives = 0;
  for (int rep = 0; rep < 100; ++rep) {
    OnlineStats a, b;
    for (int i = 0; i < 100; ++i) {
      a.add(rng.uniform(0.0, 1.0));
      b.add(rng.uniform(0.0, 1.0));
    }
    if (welch_t_test(a, b).significant()) ++false_positives;
  }
  EXPECT_LT(false_positives, 20);
}

TEST(WelchTTest, IdenticalConstantsNotSignificant) {
  OnlineStats a, b;
  for (int i = 0; i < 10; ++i) {
    a.add(4.0);
    b.add(4.0);
  }
  const TestResult r = welch_t_test(a, b);
  EXPECT_FALSE(r.significant());
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WelchTTest, DifferentConstantsMaximallySignificant) {
  OnlineStats a, b;
  for (int i = 0; i < 10; ++i) {
    a.add(4.0);
    b.add(5.0);
  }
  EXPECT_DOUBLE_EQ(welch_t_test(a, b).p_value, 0.0);
}

TEST(PairedTTest, DetectsConsistentSmallDifference) {
  // Differences with mean .05 and noise .5: paired design finds it.
  Rng rng(3);
  OnlineStats d;
  for (int i = 0; i < 2000; ++i) {
    d.add(0.05 + rng.uniform(-0.5, 0.5));
  }
  EXPECT_TRUE(paired_t_test(d).significant());
}

TEST(PairedTTest, ZeroMeanNotSignificant) {
  Rng rng(4);
  OnlineStats d;
  for (int i = 0; i < 500; ++i) d.add(rng.uniform(-1.0, 1.0));
  // Mean near zero: p should be comfortably above .001 most of the time.
  EXPECT_GT(paired_t_test(d).p_value, 1e-3);
}

// The Figure-5 prefetch-only protocol at n = 10.
SimSpec prefetch_only_spec() {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchOnly;
  spec.workload.kind = SimWorkloadKind::Iid;
  spec.workload.n_items = 10;
  return spec;
}

TEST(Significance, SkpVsNoPrefetchIsSignificantOnFig5Workload) {
  // The library's own headline comparison, now with a p-value: SKP vs no
  // prefetch on the skewy prefetch-only workload.
  SimSpec cfg = prefetch_only_spec();
  cfg.requests = 5000;
  cfg.seed = 9;
  cfg.workload.method = ProbMethod::Skewy;
  cfg.policy = PrefetchPolicy::SKP;
  const auto skp = run_prefetch_only(cfg);
  cfg.policy = PrefetchPolicy::None;
  const auto none = run_prefetch_only(cfg);
  const TestResult r =
      welch_t_test(skp.metrics.access_time, none.metrics.access_time);
  EXPECT_TRUE(r.significant(0.001));
  EXPECT_LT(r.mean_diff, 0.0);  // SKP faster
}

TEST(Significance, SkpVsKpGapUnderFlatIsSmall) {
  // The Fig.-5 flat-panel claim, quantified: the SKP(exact)/KP difference
  // under flat P is a small fraction of the no-prefetch/KP difference.
  SimSpec cfg = prefetch_only_spec();
  cfg.requests = 20000;
  cfg.seed = 10;
  cfg.workload.method = ProbMethod::Flat;
  cfg.policy = PrefetchPolicy::SKP;
  const auto skp = run_prefetch_only(cfg);
  cfg.policy = PrefetchPolicy::KP;
  const auto kp = run_prefetch_only(cfg);
  cfg.policy = PrefetchPolicy::None;
  const auto none = run_prefetch_only(cfg);
  const double gap_skp_kp = std::abs(
      skp.metrics.mean_access_time() - kp.metrics.mean_access_time());
  const double gap_none_kp =
      none.metrics.mean_access_time() - kp.metrics.mean_access_time();
  EXPECT_LT(gap_skp_kp, 0.15 * gap_none_kp);
}

}  // namespace
}  // namespace skp
