#include "core/prefetch_engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "core/access_model.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

EngineConfig cfg_for(PrefetchPolicy p) {
  EngineConfig cfg;
  cfg.policy = p;
  return cfg;
}

TEST(EnginePlan, NonePolicyPlansNothing) {
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::None));
  const auto plan = engine.plan(testing::small_instance());
  EXPECT_TRUE(plan.fetch.empty());
  EXPECT_TRUE(plan.evict.empty());
  EXPECT_DOUBLE_EQ(plan.predicted_g, 0.0);
}

TEST(EnginePlan, SkpPolicyMatchesSolver) {
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  const Instance inst = testing::small_instance();
  const auto plan = engine.plan(inst);
  const auto sol = solve_skp(inst);
  EXPECT_EQ(plan.fetch, sol.F);
  EXPECT_DOUBLE_EQ(plan.predicted_g, sol.g);
}

TEST(EnginePlan, KpPolicyNeverStretches) {
  Rng rng(401);
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::KP));
  for (int trial = 0; trial < 100; ++trial) {
    const Instance inst = testing::random_instance(rng);
    const auto plan = engine.plan(inst);
    EXPECT_DOUBLE_EQ(plan.stretch, 0.0);
    EXPECT_DOUBLE_EQ(stretch_time(inst, plan.fetch), 0.0);
  }
}

TEST(EnginePlan, PerfectFetchesExactlyTheOracleItem) {
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::Perfect));
  const Instance inst = testing::small_instance();
  const auto plan = engine.plan(inst, ItemId{1});
  EXPECT_EQ(plan.fetch, (PrefetchList{1}));
}

TEST(EnginePlan, PerfectWithoutOracleIsEmpty) {
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::Perfect));
  const auto plan = engine.plan(testing::small_instance());
  EXPECT_TRUE(plan.fetch.empty());
}

TEST(EnginePlan, ThresholdSuppressesLowValueItems) {
  EngineConfig cfg = cfg_for(PrefetchPolicy::SKP);
  cfg.min_profit_threshold = 1.0;  // drops items 2 (.75) and 3 (.4)
  const PrefetchEngine engine(cfg);
  Instance inst = testing::small_instance();
  inst.v = 1000.0;  // room for everything
  const auto plan = engine.plan(inst);
  for (ItemId f : plan.fetch) {
    EXPECT_GE(inst.profit(f), 1.0);
  }
  EXPECT_EQ(plan.fetch.size(), 2u);
}

TEST(EnginePlanCache, CachedItemsAreNotCandidates) {
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  const Instance inst = testing::small_instance();
  SlotCache cache(inst.n(), 2);
  cache.insert(0);
  FreqTracker freq(inst.n());
  const auto plan = engine.plan_with_cache(inst, cache, &freq);
  for (ItemId f : plan.fetch) {
    EXPECT_NE(f, 0);
  }
}

TEST(EnginePlanCache, FreeSlotsFillWithoutEvictions) {
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  const Instance inst = testing::small_instance();
  SlotCache cache(inst.n(), 4);  // plenty of space, nothing cached
  FreqTracker freq(inst.n());
  const auto plan = engine.plan_with_cache(inst, cache, &freq);
  EXPECT_FALSE(plan.fetch.empty());
  EXPECT_TRUE(plan.evict.empty());
}

TEST(EnginePlanCache, FullCacheRequiresAdmission) {
  // Cache holds the two most profitable items; remaining candidates have
  // lower profit, so Pr-arbitration blocks every prefetch.
  const Instance inst = testing::small_instance();
  SlotCache cache(inst.n(), 2);
  cache.insert(0);  // profit 5
  cache.insert(1);  // profit 6
  FreqTracker freq(inst.n());
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  const auto plan = engine.plan_with_cache(inst, cache, &freq);
  EXPECT_TRUE(plan.fetch.empty());
}

TEST(EnginePlanCache, ProfitableCandidateDisplacesCheapVictim) {
  // Cache holds the two cheapest items; item 0 (profit 5) must displace
  // the minimal-Pr victim (item 3, profit .4).
  Instance inst = testing::small_instance();
  inst.v = 11.0;  // item 0 fits without stretch
  SlotCache cache(inst.n(), 2);
  cache.insert(2);
  cache.insert(3);
  FreqTracker freq(inst.n());
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  const auto plan = engine.plan_with_cache(inst, cache, &freq);
  ASSERT_FALSE(plan.fetch.empty());
  EXPECT_EQ(plan.fetch.front(), 0);
  ASSERT_EQ(plan.evict.size(), plan.fetch.size());
  EXPECT_EQ(plan.evict.front(), 3);
}

TEST(EnginePlanCache, EvictAlignedWithFetchWhenFull) {
  Rng rng(403);
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  for (int trial = 0; trial < 100; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 10;
    const Instance inst = testing::random_instance(rng, opt);
    SlotCache cache(inst.n(), 3);
    // Fill the cache with three random items.
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids);
    for (int k = 0; k < 3; ++k) cache.insert(ids[k]);
    FreqTracker freq(inst.n());
    const auto plan = engine.plan_with_cache(inst, cache, &freq);
    EXPECT_EQ(plan.fetch.size(), plan.evict.size());
    // Victims must come from the cache, fetches from outside it.
    for (ItemId d : plan.evict) EXPECT_TRUE(cache.contains(d));
    for (ItemId f : plan.fetch) EXPECT_FALSE(cache.contains(f));
    // The plan must be a valid Eq.-(1) construction.
    EXPECT_TRUE(is_valid_prefetch_list(inst, plan.fetch));
  }
}

TEST(EnginePlanCache, PredictedGMatchesEq9) {
  Rng rng(405);
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::SKP));
  for (int trial = 0; trial < 100; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 10;
    const Instance inst = testing::random_instance(rng, opt);
    SlotCache cache(inst.n(), 3);
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids);
    for (int k = 0; k < 3; ++k) cache.insert(ids[k]);
    FreqTracker freq(inst.n());
    const auto plan = engine.plan_with_cache(inst, cache, &freq);
    if (plan.fetch.empty()) continue;
    EXPECT_NEAR(plan.predicted_g,
                access_improvement_cached(inst, plan.fetch, plan.evict,
                                          cache.contents()),
                1e-9);
  }
}

TEST(EnginePlanCache, PerfectBypassesAdmission) {
  // Oracle item has lower profit than every cached item but is prefetched
  // anyway (it *will* be requested).
  const Instance inst = testing::small_instance();
  SlotCache cache(inst.n(), 2);
  cache.insert(0);
  cache.insert(1);
  FreqTracker freq(inst.n());
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::Perfect));
  const auto plan = engine.plan_with_cache(inst, cache, &freq, ItemId{3});
  ASSERT_EQ(plan.fetch.size(), 1u);
  EXPECT_EQ(plan.fetch.front(), 3);
  ASSERT_EQ(plan.evict.size(), 1u);
}

TEST(EnginePlanCache, PerfectSkipsCachedOracle) {
  const Instance inst = testing::small_instance();
  SlotCache cache(inst.n(), 2);
  cache.insert(1);
  FreqTracker freq(inst.n());
  const PrefetchEngine engine(cfg_for(PrefetchPolicy::Perfect));
  const auto plan = engine.plan_with_cache(inst, cache, &freq, ItemId{1});
  EXPECT_TRUE(plan.fetch.empty());
}

// DESIGN.md D4 at the engine: the Figure-6 listing admits a prefetch
// whose P r ties its victim's.
TEST(EnginePlanCache, ListingAdmitsEqualProfitSwap) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {4.0, 4.0};  // equal profit 2.0
  inst.v = 10.0;
  SlotCache cache(inst.n(), 1);
  cache.insert(0);
  FreqTracker freq(inst.n());
  const auto plan = PrefetchEngine(cfg_for(PrefetchPolicy::SKP))
                        .plan_with_cache(inst, cache, &freq);
  ASSERT_EQ(plan.fetch.size(), 1u);  // the tie admits the prefetch
  EXPECT_EQ(plan.fetch.front(), 1);
  EXPECT_EQ(plan.evict, std::vector<ItemId>{0});
}

// ---- positive_hint ------------------------------------------------------

void expect_same_plan(const PrefetchPlan& a, const PrefetchPlan& b) {
  EXPECT_EQ(a.fetch, b.fetch);
  EXPECT_EQ(a.evict, b.evict);
  EXPECT_EQ(a.predicted_g, b.predicted_g);
  EXPECT_EQ(a.stretch, b.stretch);
  EXPECT_EQ(a.solver_nodes, b.solver_nodes);
}

TEST(EnginePlanHint, ExactSupportMatchesNoHintAndEmptyHintPlansNothing) {
  // An engaged hint is trusted. Planning a row with its exact support
  // (an all-zero row's support is empty) equals planning with no hint,
  // and an engaged empty hint returns the cleared plan whatever the row
  // holds. Both cache kinds, every policy, caches from empty to full.
  Rng rng(1801);
  constexpr std::size_t kN = 12;
  const PrefetchPlan cleared;
  for (const PrefetchPolicy policy :
       {PrefetchPolicy::None, PrefetchPolicy::KP, PrefetchPolicy::SKP,
        PrefetchPolicy::Perfect}) {
    SCOPED_TRACE(to_string(policy));
    const PrefetchEngine engine(cfg_for(policy));
    PlanScratch scratch;
    PrefetchPlan plain, hinted, empty;
    for (int trial = 0; trial < 90; ++trial) {
      testing::RandomInstanceOptions opt;
      opt.n = kN;
      Instance inst = testing::random_instance(rng, opt);
      const bool all_zero = trial % 3 == 0;
      std::vector<ItemId> support;
      for (std::size_t i = 0; i < kN; ++i) {
        if (all_zero || rng.bernoulli(0.5)) {
          inst.P[i] = 0.0;
        } else {
          support.push_back(static_cast<ItemId>(i));
        }
      }
      const auto oracle = static_cast<ItemId>(rng.next_below(kN));
      FreqTracker freq(kN);
      SlotCache slots(kN, 4);
      std::vector<double> sizes(kN);
      for (double& size : sizes) size = rng.uniform(1.0, 8.0);
      SizedCache sized(sizes, 20.0);
      const auto fill = rng.next_below(5);
      for (std::size_t k = 0; k < fill; ++k) {
        const auto id = static_cast<ItemId>(rng.next_below(kN));
        if (!slots.contains(id)) slots.insert(id);
        if (!sized.contains(id) && sized.fits(id)) sized.insert(id);
      }

      engine.plan_with_cache_cached(inst, slots, &freq, PlanMemo{}, scratch,
                                    plain, oracle);
      engine.plan_with_cache_cached(inst, slots, &freq, PlanMemo{}, scratch,
                                    hinted, oracle,
                                    std::span<const ItemId>(support));
      engine.plan_with_cache_cached(inst, slots, &freq, PlanMemo{}, scratch,
                                    empty, oracle, std::span<const ItemId>());
      expect_same_plan(hinted, plain);
      expect_same_plan(empty, cleared);

      engine.plan_with_sized_cache_cached(inst, sized, &freq, PlanMemo{},
                                          scratch, plain, oracle);
      engine.plan_with_sized_cache_cached(inst, sized, &freq, PlanMemo{},
                                          scratch, hinted, oracle,
                                          std::span<const ItemId>(support));
      engine.plan_with_sized_cache_cached(inst, sized, &freq, PlanMemo{},
                                          scratch, empty, oracle,
                                          std::span<const ItemId>());
      expect_same_plan(hinted, plain);
      expect_same_plan(empty, cleared);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(PolicyNames, ToStringCoverage) {
  EXPECT_EQ(to_string(PrefetchPolicy::None), "none");
  EXPECT_EQ(to_string(PrefetchPolicy::KP), "KP");
  EXPECT_EQ(to_string(PrefetchPolicy::SKP), "SKP");
  EXPECT_EQ(to_string(PrefetchPolicy::Perfect), "perfect");
  EXPECT_EQ(to_string(SubArbitration::None), "none");
  EXPECT_EQ(to_string(SubArbitration::LFU), "LFU");
  EXPECT_EQ(to_string(SubArbitration::DS), "DS");
}

}  // namespace
}  // namespace skp
