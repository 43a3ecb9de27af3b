#include "sim/prefetch_only.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace skp {
namespace {

// The Figure-4/5 protocol at n = 10.
SimSpec quick(PrefetchPolicy policy, ProbMethod method,
              std::size_t iters = 4000) {
  SimSpec cfg;
  cfg.driver = SimDriverKind::PrefetchOnly;
  cfg.workload.kind = SimWorkloadKind::Iid;
  cfg.workload.n_items = 10;
  cfg.workload.method = method;
  cfg.policy = policy;
  cfg.requests = iters;
  cfg.seed = 7;
  return cfg;
}

TEST(PrefetchOnlySim, DeterministicInSeed) {
  const auto a = run_prefetch_only(quick(PrefetchPolicy::SKP,
                                         ProbMethod::Skewy, 1000));
  const auto b = run_prefetch_only(quick(PrefetchPolicy::SKP,
                                         ProbMethod::Skewy, 1000));
  EXPECT_DOUBLE_EQ(a.metrics.mean_access_time(),
                   b.metrics.mean_access_time());
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
}

TEST(PrefetchOnlySim, RequestCountMatchesIterations) {
  const auto res = run_prefetch_only(quick(PrefetchPolicy::KP,
                                           ProbMethod::Flat, 1234));
  EXPECT_EQ(res.metrics.requests, 1234u);
  EXPECT_EQ(res.metrics.access_time.count(), 1234u);
}

TEST(PrefetchOnlySim, NoPrefetchMeanMatchesTheory) {
  // With no prefetching, E(T) = E(r) = 15.5 for r ~ U{1..30}.
  auto cfg = quick(PrefetchPolicy::None, ProbMethod::Flat, 30000);
  const auto res = run_prefetch_only(cfg);
  EXPECT_NEAR(res.metrics.mean_access_time(), 15.5, 0.4);
  EXPECT_EQ(res.metrics.hits, 0u);
  EXPECT_EQ(res.metrics.prefetch_fetches, 0u);
}

TEST(PrefetchOnlySim, PerfectPrefetchIsMaxZeroRMinusV) {
  // Perfect prefetch: T = max(0, r - v); with v >= 30 always 0.
  auto cfg = quick(PrefetchPolicy::Perfect, ProbMethod::Flat, 5000);
  cfg.workload.v_lo = 30.0;
  cfg.workload.v_hi = 100.0;
  const auto res = run_prefetch_only(cfg);
  EXPECT_DOUBLE_EQ(res.metrics.mean_access_time(), 0.0);
  EXPECT_EQ(res.metrics.hits, res.metrics.requests);
}

TEST(PrefetchOnlySim, PolicyOrderingUnderSkewyMethod) {
  // Fig. 5 shape: perfect <= SKP <= no-prefetch, and SKP <= KP + margin.
  const double t_perfect =
      run_prefetch_only(quick(PrefetchPolicy::Perfect, ProbMethod::Skewy))
          .metrics.mean_access_time();
  const double t_skp =
      run_prefetch_only(quick(PrefetchPolicy::SKP, ProbMethod::Skewy))
          .metrics.mean_access_time();
  const double t_kp =
      run_prefetch_only(quick(PrefetchPolicy::KP, ProbMethod::Skewy))
          .metrics.mean_access_time();
  const double t_none =
      run_prefetch_only(quick(PrefetchPolicy::None, ProbMethod::Skewy))
          .metrics.mean_access_time();
  EXPECT_LE(t_perfect, t_skp + 1e-9);
  EXPECT_LT(t_skp, t_none);
  EXPECT_LT(t_kp, t_none);
  EXPECT_LT(t_skp, t_kp + 0.5);  // SKP at least comparable to KP
}

TEST(PrefetchOnlySim, ScatterCollectsRequestedSamples) {
  auto cfg = quick(PrefetchPolicy::SKP, ProbMethod::Skewy, 2000);
  std::vector<std::pair<double, double>> scatter(500);
  run_prefetch_only(cfg, scatter);
  EXPECT_EQ(scatter.size(), 500u);
  for (const auto& [v, T] : scatter) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
    EXPECT_GE(T, 0.0);
  }
  // A buffer the run cannot fill is refused, not left partly unwritten.
  std::vector<std::pair<double, double>> too_long(2001);
  EXPECT_THROW(run_prefetch_only(cfg, too_long), std::invalid_argument);
}

TEST(PrefetchOnlySim, SkpScatterShowsStretchTail) {
  // Fig. 4a: SKP points can exceed max r = 30 (stretch intrusion); KP
  // points cannot exceed st + r... with st = 0, T <= 30 always.
  auto skp_cfg = quick(PrefetchPolicy::SKP, ProbMethod::Skewy, 30000);
  std::vector<std::pair<double, double>> skp_scatter(30000);
  run_prefetch_only(skp_cfg, skp_scatter);
  bool skp_above_30 = false;
  for (const auto& [v, T] : skp_scatter) {
    if (T > 30.0) skp_above_30 = true;
  }
  EXPECT_TRUE(skp_above_30);

  auto kp_cfg = quick(PrefetchPolicy::KP, ProbMethod::Skewy, 10000);
  std::vector<std::pair<double, double>> kp_scatter(10000);
  run_prefetch_only(kp_cfg, kp_scatter);
  for (const auto& [v, T] : kp_scatter) {
    EXPECT_LE(T, 30.0);
  }
}

TEST(PrefetchOnlySim, BinnedMeansCoverVRange) {
  const auto res = run_prefetch_only(quick(PrefetchPolicy::SKP,
                                           ProbMethod::Flat, 20000));
  const auto series = res.avg_T_by_v->series();
  EXPECT_GT(series.size(), 90u);  // nearly every v in 1..100 hit
}

TEST(PrefetchOnlySim, RealViewingTimesFileIntoRoundedBins) {
  // Each sample is filed under the integer nearest its v: real-valued v
  // in [1, 2.6] reaches bin 3, past the truncated upper end of the range.
  auto cfg = quick(PrefetchPolicy::SKP, ProbMethod::Skewy, 2000);
  cfg.workload.integer_times = false;
  cfg.workload.v_hi = 2.6;
  const SimResult res = run_sim(cfg);
  const BinnedMeans& bins = *res.avg_T_by_v;
  EXPECT_EQ(bins.lo(), 1);
  EXPECT_EQ(bins.hi(), 3);
  EXPECT_GT(bins.bin(3).count(), 0u);
  EXPECT_EQ(bins.bin(1).count() + bins.bin(2).count() + bins.bin(3).count(),
            2000u);
}

TEST(PrefetchOnlySim, MoreItemsRaiseAccessTime) {
  // Fig. 5 (a) vs (c): n = 25 has higher average T than n = 10.
  auto cfg10 = quick(PrefetchPolicy::SKP, ProbMethod::Skewy, 8000);
  auto cfg25 = cfg10;
  cfg25.workload.n_items = 25;
  const double t10 = run_prefetch_only(cfg10).metrics.mean_access_time();
  const double t25 = run_prefetch_only(cfg25).metrics.mean_access_time();
  EXPECT_GT(t25, t10);
}

TEST(PrefetchOnlySim, FlatMethodNarrowsSkpKpGap) {
  // Fig. 5 (b)(d): under flat P the SKP and KP curves nearly coincide.
  const double skp =
      run_prefetch_only(quick(PrefetchPolicy::SKP, ProbMethod::Flat, 8000))
          .metrics.mean_access_time();
  const double kp =
      run_prefetch_only(quick(PrefetchPolicy::KP, ProbMethod::Flat, 8000))
          .metrics.mean_access_time();
  EXPECT_NEAR(skp, kp, 0.5);
}

TEST(PrefetchOnlySim, ConfigValidation) {
  SimSpec cfg = quick(PrefetchPolicy::SKP, ProbMethod::Skewy, 50'000);
  cfg.seed = 1;
  cfg.workload.n_items = 0;
  EXPECT_THROW(run_prefetch_only(cfg), std::invalid_argument);
  cfg.workload.n_items = 10;
  cfg.workload.r_lo = 0.0;
  EXPECT_THROW(run_prefetch_only(cfg), std::invalid_argument);
  // Figure 5's bins are allocated up front, one per integer viewing
  // time: a range with too many bins, or an infinite one, is rejected
  // before anything is allocated.
  cfg.workload.r_lo = 1.0;
  for (const double v_hi : {1e15, std::numeric_limits<double>::infinity()}) {
    cfg.workload.v_hi = v_hi;
    EXPECT_THROW(run_prefetch_only(cfg), std::invalid_argument) << v_hi;
  }
  // The paper's 1..100 still runs.
  cfg.workload.v_hi = 100.0;
  cfg.requests = 100;
  EXPECT_NO_THROW(run_prefetch_only(cfg));
}

}  // namespace
}  // namespace skp
