#include "sim/prefetch_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>

namespace skp {
namespace {

SimSpec quick(PrefetchPolicy policy,
              SubArbitration sub = SubArbitration::None) {
  SimSpec spec;  // prefetch_cache driver, markov workload
  spec.workload.n_items = 30;
  spec.workload.out_degree_lo = 4;
  spec.workload.out_degree_hi = 8;
  spec.cache_size = 6;
  spec.policy = policy;
  spec.sub = sub;
  spec.requests = 3000;
  spec.seed = 11;
  return spec;
}

TEST(PrefetchCacheSim, DeterministicInSeed) {
  const auto a = run_prefetch_cache(quick(PrefetchPolicy::SKP));
  const auto b = run_prefetch_cache(quick(PrefetchPolicy::SKP));
  EXPECT_DOUBLE_EQ(a.metrics.mean_access_time(),
                   b.metrics.mean_access_time());
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.demand_fetches, b.metrics.demand_fetches);
}

TEST(PrefetchCacheSim, RequestCountHonored) {
  auto cfg = quick(PrefetchPolicy::None);
  cfg.requests = 777;
  const auto res = run_prefetch_cache(cfg);
  EXPECT_EQ(res.metrics.requests, 777u);
}

TEST(PrefetchCacheSim, WarmupExcludedFromMetrics) {
  auto cfg = quick(PrefetchPolicy::SKP);
  cfg.requests = 1000;
  cfg.warmup = 400;
  const auto res = run_prefetch_cache(cfg);
  EXPECT_EQ(res.metrics.requests, 600u);
}

TEST(PrefetchCacheSim, NoPolicyNeverPrefetches) {
  const auto res = run_prefetch_cache(quick(PrefetchPolicy::None));
  EXPECT_EQ(res.metrics.prefetch_fetches, 0u);
  EXPECT_GT(res.metrics.demand_fetches, 0u);
}

TEST(PrefetchCacheSim, PerfectDominatesEverything) {
  const double perfect =
      run_prefetch_cache(quick(PrefetchPolicy::Perfect))
          .metrics.mean_access_time();
  const double skp = run_prefetch_cache(quick(PrefetchPolicy::SKP))
                         .metrics.mean_access_time();
  const double none = run_prefetch_cache(quick(PrefetchPolicy::None))
                          .metrics.mean_access_time();
  EXPECT_LE(perfect, skp + 1e-9);
  EXPECT_LE(perfect, none + 1e-9);
}

TEST(PrefetchCacheSim, SkpBeatsNoPrefetch) {
  const double skp = run_prefetch_cache(quick(PrefetchPolicy::SKP))
                         .metrics.mean_access_time();
  const double none = run_prefetch_cache(quick(PrefetchPolicy::None))
                          .metrics.mean_access_time();
  EXPECT_LT(skp, none);
}

TEST(PrefetchCacheSim, BiggerCacheHelps) {
  auto small = quick(PrefetchPolicy::SKP);
  small.cache_size = 2;
  auto large = quick(PrefetchPolicy::SKP);
  large.cache_size = 25;
  const double t_small =
      run_prefetch_cache(small).metrics.mean_access_time();
  const double t_large =
      run_prefetch_cache(large).metrics.mean_access_time();
  EXPECT_LT(t_large, t_small);
}

TEST(PrefetchCacheSim, FullCoverageCacheMakesHitsCheap) {
  // Cache as large as the catalog: after warmup nearly everything hits.
  auto cfg = quick(PrefetchPolicy::SKP);
  cfg.cache_size = cfg.workload.n_items;
  cfg.requests = 4000;
  cfg.warmup = 2000;
  const auto res = run_prefetch_cache(cfg);
  EXPECT_GT(res.metrics.hit_rate(), 0.95);
}

TEST(PrefetchCacheSim, SubArbitrationChangesOutcome) {
  const auto plain =
      run_prefetch_cache(quick(PrefetchPolicy::SKP, SubArbitration::None));
  const auto ds =
      run_prefetch_cache(quick(PrefetchPolicy::SKP, SubArbitration::DS));
  // Different victim choices must perturb the trajectory; exact values are
  // workload-dependent but the runs must not be identical.
  EXPECT_NE(plain.metrics.hits, ds.metrics.hits);
}

TEST(PrefetchCacheSim, PredictorModeRuns) {
  auto cfg = quick(PrefetchPolicy::SKP);
  cfg.predictor = PredictorKind::Markov1;
  cfg.requests = 1500;
  const auto res = run_prefetch_cache(cfg);
  EXPECT_EQ(res.metrics.requests, 1500u);
  EXPECT_GT(res.metrics.prefetch_fetches, 0u);
}

TEST(PrefetchCacheSim, OracleBeatsColdPredictorEarly) {
  auto oracle = quick(PrefetchPolicy::SKP);
  oracle.requests = 2000;
  auto learned = oracle;
  learned.predictor = PredictorKind::Markov1;
  const double t_oracle =
      run_prefetch_cache(oracle).metrics.mean_access_time();
  const double t_learned =
      run_prefetch_cache(learned).metrics.mean_access_time();
  EXPECT_LE(t_oracle, t_learned + 0.5);
}

TEST(PrefetchCacheSim, ThresholdReducesNetworkUsage) {
  auto eager = quick(PrefetchPolicy::SKP);
  eager.requests = 2000;
  auto frugal = eager;
  frugal.min_profit_threshold = 3.0;
  const auto res_eager = run_prefetch_cache(eager);
  const auto res_frugal = run_prefetch_cache(frugal);
  EXPECT_LT(res_frugal.metrics.network_time_per_request(),
            res_eager.metrics.network_time_per_request());
}

TEST(PrefetchCacheSim, AccessTimesNonNegative) {
  const auto res = run_prefetch_cache(quick(PrefetchPolicy::SKP));
  EXPECT_GE(res.metrics.access_time.min(), 0.0);
}

TEST(PrefetchCacheSim, CacheSizeValidation) {
  auto cfg = quick(PrefetchPolicy::SKP);
  cfg.cache_size = 0;
  EXPECT_THROW(run_prefetch_cache(cfg), std::invalid_argument);
}

TEST(PrefetchCacheSim, RefusesLearnedPredictorWithLookahead) {
  // The loop plans on exactly one row: a learned row or a lookahead blend
  // of oracle rows, never both.
  auto cfg = quick(PrefetchPolicy::SKP);
  cfg.predictor = PredictorKind::Markov1;
  EXPECT_THROW(run_prefetch_cache_lookahead(cfg, 3), std::invalid_argument);
  EXPECT_NO_THROW(run_prefetch_cache_lookahead(cfg, 1));
}

TEST(PredictorKindNames, Stable) {
  EXPECT_STREQ(to_string(PredictorKind::Oracle), "oracle");
  EXPECT_STREQ(to_string(PredictorKind::Markov1), "markov1");
  EXPECT_STREQ(to_string(PredictorKind::Ppm), "ppm");
  EXPECT_STREQ(to_string(PredictorKind::DependencyWindow), "depgraph");
}

// ---- Fixed-seed equivalence lock ----------------------------------------
//
// Pins every simulator counter bit-for-bit at a fixed seed, across all
// policies, predictors, and both cache kinds. This is the safety net for
// hot-path refactors (borrowed instance views, scratch-buffer reuse, loop
// reordering): such changes must not move a single metric, so any drift
// here is a real behavior change, not noise. The doubles are written with
// 17 significant digits (round-trip exact for IEEE doubles).
//
// Refresh after an INTENTIONAL behavior change:
//   ./build/tests/test_prefetch_cache_sim --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintEquivalenceTable*'   (one command line)
// and paste the emitted rows over kEquivalence below.

struct EquivCase {
  const char* name;
  bool sized;  // false = SlotCache protocol, true = SizedCache protocol
  PrefetchPolicy policy;
  SubArbitration sub;
  PredictorKind predictor;
  std::size_t lookahead;
  double min_profit;
  double size_per_r;  // sized only: 0 = uniform 15.5-unit items
  // Slot only. 30 states is quick()'s 4-8 out-degree chain; any other
  // count takes the paper-default chain shape (out-degree 10-20), whose
  // catalog spans more than one 64-item presence word at 100.
  std::size_t n_states = 30;
  std::size_t cache_size = 6;
};

const EquivCase kEquivCases[] = {
    // clang-format off
    {"slot_none",      false, PrefetchPolicy::None,    SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0},
    {"slot_kp",        false, PrefetchPolicy::KP,      SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0},
    {"slot_skp",       false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0},
    {"slot_skp_lfu",   false, PrefetchPolicy::SKP,     SubArbitration::LFU,  PredictorKind::Oracle, 1, 0.0, 1.0},
    {"slot_skp_ds",    false, PrefetchPolicy::SKP,     SubArbitration::DS,   PredictorKind::Oracle, 1, 0.0, 1.0},
    {"slot_perfect",   false, PrefetchPolicy::Perfect, SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0},
    {"slot_markov1",   false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Markov1, 1, 0.0, 1.0},
    {"slot_ppm",       false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Ppm, 1, 0.0, 1.0},
    {"slot_lz78",      false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Lz78, 1, 0.0, 1.0},
    {"slot_depgraph",  false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::DependencyWindow, 1, 0.0, 1.0},
    {"slot_lookahead", false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Oracle, 3, 0.0, 1.0},
    {"slot_threshold", false, PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Oracle, 1, 2.0, 1.0},
    {"sized_skp_ds",   true,  PrefetchPolicy::SKP,     SubArbitration::DS,   PredictorKind::Oracle, 1, 0.0, 1.0},
    {"sized_uniform",  true,  PrefetchPolicy::SKP,     SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 0.0},
    {"sized_kp_lfu",   true,  PrefetchPolicy::KP,      SubArbitration::LFU,  PredictorKind::Oracle, 1, 0.0, 1.0},
    {"sized_perfect",  true,  PrefetchPolicy::Perfect, SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0},
    {"paper_skp_c10",     false, PrefetchPolicy::SKP, SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0, 100, 10},
    {"paper_skp_lfu_c10", false, PrefetchPolicy::SKP, SubArbitration::LFU,  PredictorKind::Oracle, 1, 0.0, 1.0, 100, 10},
    {"paper_skp_ds_c10",  false, PrefetchPolicy::SKP, SubArbitration::DS,   PredictorKind::Oracle, 1, 0.0, 1.0, 100, 10},
    {"paper_skp_c75",     false, PrefetchPolicy::SKP, SubArbitration::None, PredictorKind::Oracle, 1, 0.0, 1.0, 100, 75},
    {"paper_skp_lfu_c75", false, PrefetchPolicy::SKP, SubArbitration::LFU,  PredictorKind::Oracle, 1, 0.0, 1.0, 100, 75},
    {"paper_skp_ds_c75",  false, PrefetchPolicy::SKP, SubArbitration::DS,   PredictorKind::Oracle, 1, 0.0, 1.0, 100, 75},
    // clang-format on
};

SimResult run_equiv_case(const EquivCase& c, bool use_plan_cache = true) {
  auto cfg = quick(c.policy, c.sub);
  cfg.use_plan_cache = use_plan_cache;
  if (c.sized) {
    cfg.sized_capacity = 90.0;
    cfg.size_per_r = c.size_per_r;
    cfg.size_lo = cfg.size_hi = 15.5;
    cfg.requests = 1500;
    return run_prefetch_cache(cfg);
  }
  if (c.n_states != cfg.workload.n_items) {
    cfg.workload = SimWorkload{};
    cfg.workload.n_items = c.n_states;
  }
  cfg.cache_size = c.cache_size;
  cfg.predictor = c.predictor;
  cfg.min_profit_threshold = c.min_profit;
  cfg.requests = 2000;
  return run_prefetch_cache_lookahead(cfg, c.lookahead);
}

struct EquivRow {
  const char* name;
  std::uint64_t hits, demand, prefetch, wasted, nodes, over;
  double mean_T, net_time;
};

const EquivRow kEquivalence[] = {
    // clang-format off
    {"slot_none", 483, 1517, 0, 0, 0, 313, 11.218500000000015, 22437},
    {"slot_kp", 1540, 460, 6059, 4581, 18155, 312, 4.2899999999999956, 86056},
    {"slot_skp", 1492, 388, 6257, 4679, 8878, 222, 3.6070000000000024, 90990},
    {"slot_skp_lfu", 1497, 387, 6165, 4624, 8946, 229, 3.6485000000000043, 89485},
    {"slot_skp_ds", 1523, 372, 6418, 4864, 9107, 227, 3.3630000000000004, 89163},
    {"slot_perfect", 1686, 0, 1597, 0, 0, 122, 1.2900000000000005, 22851},
    {"slot_markov1", 1411, 471, 5547, 4128, 19699, 218, 4.1320000000000006, 81233},
    {"slot_ppm", 1412, 527, 5646, 4285, 18818, 256, 4.1510000000000096, 83471},
    {"slot_lz78", 923, 1053, 3563, 2856, 51142, 252, 6.5534999999999988, 63943},
    {"slot_depgraph", 1331, 660, 5773, 4452, 40848, 233, 4.3340000000000076, 95159},
    {"slot_lookahead", 1451, 543, 5130, 3837, 52517, 232, 3.160499999999999, 85238},
    {"slot_threshold", 1042, 816, 2476, 1574, 2898, 188, 4.5220000000000038, 57113},
    {"sized_skp_ds", 1121, 297, 4590, 3451, 6821, 169, 3.7333333333333316, 65096},
    {"sized_uniform", 1090, 322, 4721, 3558, 7078, 175, 3.859333333333332, 69992},
    {"sized_kp_lfu", 1154, 346, 4081, 3117, 12737, 233, 4.3813333333333331, 60095},
    {"sized_perfect", 1260, 0, 1183, 0, 0, 84, 1.2866666666666653, 17486},
    {"paper_skp_c10", 1041, 949, 7256, 6224, 33911, 219, 8.0319999999999965, 113290},
    {"paper_skp_lfu_c10", 1072, 920, 7285, 6254, 34930, 220, 7.8034999999999997, 112746},
    {"paper_skp_ds_c10", 1080, 910, 7519, 6461, 34799, 213, 7.4009999999999989, 112099},
    {"paper_skp_c75", 1865, 132, 4655, 4111, 7975, 82, 1.3380000000000012, 66225},
    {"paper_skp_lfu_c75", 1899, 98, 4018, 3637, 6672, 59, 1.009500000000003, 59848},
    {"paper_skp_ds_c75", 1941, 57, 5914, 5357, 7526, 27, 0.33300000000000018, 42915},
    // clang-format on
};

// The tentpole claim of the plan-memoization subsystem: with the plan
// cache on (the default used by every kEquivCase above) each simulator
// counter is bit-identical to the uncached run, across every policy,
// predictor, sub-arbitration, and both cache kinds. Also asserts the
// cache is actually exercised where it can be: oracle mode without
// sub-arbitration must produce cross-request hits, while volatile
// contexts (predictors, LFU/DS) must be all-miss by generation design.
TEST(PrefetchCacheEquivalence, PlanCacheOnOffBitIdentical) {
  for (const EquivCase& c : kEquivCases) {
    const SimResult on = run_equiv_case(c);

    const SimResult off = run_equiv_case(c, false);

    EXPECT_EQ(on.metrics.hits, off.metrics.hits) << c.name;
    EXPECT_EQ(on.metrics.demand_fetches, off.metrics.demand_fetches)
        << c.name;
    EXPECT_EQ(on.metrics.prefetch_fetches, off.metrics.prefetch_fetches)
        << c.name;
    EXPECT_EQ(on.metrics.wasted_prefetches, off.metrics.wasted_prefetches)
        << c.name;
    EXPECT_EQ(on.metrics.solver_nodes, off.metrics.solver_nodes) << c.name;
    EXPECT_EQ(on.over_viewing_time, off.over_viewing_time) << c.name;
    EXPECT_DOUBLE_EQ(on.metrics.mean_access_time(),
                     off.metrics.mean_access_time())
        << c.name;
    EXPECT_DOUBLE_EQ(on.metrics.network_time, off.metrics.network_time)
        << c.name;

    EXPECT_EQ(off.plan_cache.plans.lookups(), 0u) << c.name;
    EXPECT_EQ(off.plan_cache.selections.lookups(), 0u) << c.name;
    const bool memoizable_policy = c.policy != PrefetchPolicy::None &&
                                   c.policy != PrefetchPolicy::Perfect;
    // Completed plans replay only when context beyond (state, cache set)
    // is static: oracle rows, no sub-arbitration.
    const bool plans_can_hit = memoizable_policy &&
                               c.predictor == PredictorKind::Oracle &&
                               c.sub == SubArbitration::None;
    if (plans_can_hit) {
      EXPECT_GT(on.plan_cache.plans.hits, 0u) << c.name;
    } else {
      EXPECT_EQ(on.plan_cache.plans.hits, 0u) << c.name;
    }
    // Solver selections never read frequencies, so they replay under any
    // sub-arbitration — only learned predictors retire them. Lookahead
    // blends widen the support to nearly the whole catalog, where the
    // candidate set determines the cache set and the plan tier absorbs
    // every recurrence first, so no extra selection hits are guaranteed.
    const bool selections_can_hit = memoizable_policy &&
                                    c.predictor == PredictorKind::Oracle &&
                                    c.lookahead <= 1;
    if (selections_can_hit) {
      EXPECT_GT(on.plan_cache.selections.hits, 0u) << c.name;
    } else if (c.predictor != PredictorKind::Oracle) {
      EXPECT_EQ(on.plan_cache.selections.hits, 0u) << c.name;
    }
  }
}

TEST(PrefetchCacheEquivalence, MetricsBitIdenticalAtFixedSeed) {
  ASSERT_EQ(std::size(kEquivalence), std::size(kEquivCases))
      << "equivalence table out of date — rerun PrintEquivalenceTable";
  for (std::size_t i = 0; i < std::size(kEquivCases); ++i) {
    const EquivCase& c = kEquivCases[i];
    const EquivRow& g = kEquivalence[i];
    ASSERT_STREQ(c.name, g.name);
    const SimResult res = run_equiv_case(c);
    const auto& m = res.metrics;
    EXPECT_EQ(m.hits, g.hits) << c.name;
    EXPECT_EQ(m.demand_fetches, g.demand) << c.name;
    EXPECT_EQ(m.prefetch_fetches, g.prefetch) << c.name;
    EXPECT_EQ(m.wasted_prefetches, g.wasted) << c.name;
    EXPECT_EQ(m.solver_nodes, g.nodes) << c.name;
    EXPECT_EQ(res.over_viewing_time, g.over) << c.name;
    EXPECT_DOUBLE_EQ(m.mean_access_time(), g.mean_T) << c.name;
    EXPECT_DOUBLE_EQ(m.network_time, g.net_time) << c.name;
  }
}

// Manual refresh: prints the kEquivalence initializer rows (17 significant
// digits, round-trip exact). Disabled so ctest never depends on it.
TEST(PrefetchCacheEquivalence, DISABLED_PrintEquivalenceTable) {
  for (const EquivCase& c : kEquivCases) {
    const SimResult res = run_equiv_case(c);
    const auto& m = res.metrics;
    std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %.17g, "
                "%.17g},\n",
                c.name, static_cast<unsigned long long>(m.hits),
                static_cast<unsigned long long>(m.demand_fetches),
                static_cast<unsigned long long>(m.prefetch_fetches),
                static_cast<unsigned long long>(m.wasted_prefetches),
                static_cast<unsigned long long>(m.solver_nodes),
                static_cast<unsigned long long>(res.over_viewing_time),
                m.mean_access_time(), m.network_time);
  }
}

}  // namespace
}  // namespace skp
