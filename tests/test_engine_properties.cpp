// Property grid over the prefetch engine: every (policy, sub-arbitration,
// cache fill) combination must uphold the planning invariants on random
// instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "core/access_model.hpp"
#include "core/kp_solver.hpp"
#include "core/prefetch_engine.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

// ctest names each case after GetParam()'s bytes as well as the name
// below, so the struct keeps its 24-byte width.
struct EngineParam {
  PrefetchPolicy policy;
  SubArbitration sub;
  std::size_t capacity;    // cache slots
  std::size_t cache_fill;  // resident items, at most `capacity`
};

// Every row runs the Figure-6 listing's tie rule (DESIGN.md D4), and the
// names say so.
std::string engine_param_name(
    const ::testing::TestParamInfo<EngineParam>& info) {
  const auto& p = info.param;
  return to_string(p.policy) + "_" + to_string(p.sub) + "_listing_fill" +
         std::to_string(p.cache_fill);
}

class EngineGridTest : public ::testing::TestWithParam<EngineParam> {
 protected:
  EngineConfig config() const {
    EngineConfig cfg;
    cfg.policy = GetParam().policy;
    cfg.arbitration.sub = GetParam().sub;
    return cfg;
  }

  // Builds a random instance plus a partially filled cache + freq state.
  struct World {
    Instance inst;
    SlotCache cache;
    FreqTracker freq;
  };

  World make_world(Rng& rng) const {
    testing::RandomInstanceOptions opt;
    opt.n = 10;
    Instance inst = testing::random_instance(rng, opt);
    SlotCache cache(inst.n(), GetParam().capacity);
    FreqTracker freq(inst.n());
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids);
    for (std::size_t k = 0; k < GetParam().cache_fill; ++k) {
      cache.insert(ids[k]);
    }
    // Random access history for the sub-arbitration scores.
    for (int i = 0; i < 30; ++i) {
      freq.record(static_cast<ItemId>(rng.next_below(inst.n())));
    }
    return {std::move(inst), std::move(cache), std::move(freq)};
  }
};

TEST_P(EngineGridTest, PlansUpholdStructuralInvariants) {
  Rng rng(7000 + static_cast<std::uint64_t>(GetParam().cache_fill));
  const PrefetchEngine engine(config());
  for (int trial = 0; trial < 80; ++trial) {
    World w = make_world(rng);
    const auto oracle =
        static_cast<ItemId>(rng.next_below(w.inst.n()));
    const auto plan = engine.plan_with_cache(
        w.inst, w.cache, &w.freq,
        GetParam().policy == PrefetchPolicy::Perfect
            ? std::optional<ItemId>(oracle)
            : std::nullopt);

    // Fetches are unique, uncached, and form a valid Eq.-(1) list.
    std::set<ItemId> fetch_set(plan.fetch.begin(), plan.fetch.end());
    EXPECT_EQ(fetch_set.size(), plan.fetch.size());
    for (const ItemId f : plan.fetch) {
      EXPECT_FALSE(w.cache.contains(f));
    }
    EXPECT_TRUE(is_valid_prefetch_list(w.inst, plan.fetch));

    // Victims are distinct residents, never more than the fetches.
    std::set<ItemId> evict_set(plan.evict.begin(), plan.evict.end());
    EXPECT_EQ(evict_set.size(), plan.evict.size());
    EXPECT_LE(plan.evict.size(), plan.fetch.size());
    for (const ItemId d : plan.evict) {
      EXPECT_TRUE(w.cache.contains(d));
    }

    // Capacity is never exceeded after applying the plan.
    const std::size_t after =
        w.cache.size() - plan.evict.size() + plan.fetch.size();
    EXPECT_LE(after, w.cache.capacity());
  }
}

TEST_P(EngineGridTest, NonePolicyIsAlwaysEmpty) {
  if (GetParam().policy != PrefetchPolicy::None) GTEST_SKIP();
  Rng rng(7100);
  const PrefetchEngine engine(config());
  for (int trial = 0; trial < 40; ++trial) {
    World w = make_world(rng);
    const auto plan = engine.plan_with_cache(w.inst, w.cache, &w.freq);
    EXPECT_TRUE(plan.fetch.empty());
    EXPECT_TRUE(plan.evict.empty());
  }
}

TEST_P(EngineGridTest, PredictedGMatchesEq9ForExactSkp) {
  if (GetParam().policy != PrefetchPolicy::SKP) GTEST_SKIP();
  Rng rng(7200 + static_cast<std::uint64_t>(GetParam().cache_fill));
  const PrefetchEngine engine(config());
  for (int trial = 0; trial < 60; ++trial) {
    World w = make_world(rng);
    const auto plan = engine.plan_with_cache(w.inst, w.cache, &w.freq);
    if (plan.fetch.empty()) continue;
    EXPECT_NEAR(plan.predicted_g,
                access_improvement_cached(w.inst, plan.fetch, plan.evict,
                                          w.cache.contents()),
                1e-9);
  }
}

TEST_P(EngineGridTest, ThresholdMonotonicallyPrunes) {
  if (GetParam().policy == PrefetchPolicy::None) GTEST_SKIP();
  Rng rng(7300 + static_cast<std::uint64_t>(GetParam().cache_fill));
  for (int trial = 0; trial < 40; ++trial) {
    World w = make_world(rng);
    std::size_t prev_count = SIZE_MAX;
    for (const double th : {0.0, 1.0, 4.0, 16.0}) {
      EngineConfig cfg = config();
      cfg.min_profit_threshold = th;
      const PrefetchEngine engine(cfg);
      const auto plan = engine.plan_with_cache(
          w.inst, w.cache, &w.freq,
          GetParam().policy == PrefetchPolicy::Perfect
              ? std::optional<ItemId>(ItemId{0})
              : std::nullopt);
      // Every fetched item clears the threshold.
      for (const ItemId f : plan.fetch) {
        EXPECT_GE(w.inst.profit(f), th);
      }
      (void)prev_count;
      prev_count = plan.fetch.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineGridTest,
    ::testing::Values(
        EngineParam{PrefetchPolicy::None, SubArbitration::None, 4, 2},
        EngineParam{PrefetchPolicy::KP, SubArbitration::None, 4, 0},
        EngineParam{PrefetchPolicy::KP, SubArbitration::LFU, 4, 4},
        EngineParam{PrefetchPolicy::SKP, SubArbitration::None, 4, 0},
        EngineParam{PrefetchPolicy::SKP, SubArbitration::None, 4, 4},
        EngineParam{PrefetchPolicy::SKP, SubArbitration::LFU, 4, 2},
        EngineParam{PrefetchPolicy::SKP, SubArbitration::LFU, 4, 3},
        EngineParam{PrefetchPolicy::SKP, SubArbitration::DS, 4, 4},
        EngineParam{PrefetchPolicy::SKP, SubArbitration::DS, 4, 1},
        EngineParam{PrefetchPolicy::Perfect, SubArbitration::None, 4, 4},
        EngineParam{PrefetchPolicy::Perfect, SubArbitration::DS, 4, 2}),
    engine_param_name);

// ---- Differential Figure-6 admission -----------------------------------
// plan_with_cache against a reference Figure-6 loop built from public
// calls only: solve over the uncached positive items, admit the proposal
// in descending P r (ties in Eq.-5 order), fill free slots, then repeat
// choose_victim plus removal under the Pr-arbitration test. The engine
// extracts its victims without those repeated scans, so fetch and evict
// must match exactly, on catalogs on both sides of the 64-item word
// boundary.
PrefetchPlan reference_plan(const Instance& inst, const SlotCache& cache,
                            const FreqTracker& freq,
                            const EngineConfig& cfg) {
  std::vector<ItemId> candidates;
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const auto id = static_cast<ItemId>(i);
    if (inst.P[i] > 0.0 && !cache.contains(id)) candidates.push_back(id);
  }
  const std::vector<ItemId> proposal =
      cfg.policy == PrefetchPolicy::SKP ? solve_skp(inst, candidates).F
                                        : solve_kp_bb(inst, candidates).items;
  std::vector<ItemId> by_profit = proposal;
  std::sort(by_profit.begin(), by_profit.end(), [&](ItemId a, ItemId b) {
    const auto i = static_cast<std::size_t>(a);
    const auto j = static_cast<std::size_t>(b);
    if (inst.profit(a) != inst.profit(b)) {
      return inst.profit(a) > inst.profit(b);
    }
    if (inst.P[i] != inst.P[j]) return inst.P[i] > inst.P[j];
    if (inst.r[i] != inst.r[j]) return inst.r[i] < inst.r[j];
    return a < b;
  });

  std::vector<ItemId> resident(cache.contents().begin(),
                               cache.contents().end());
  std::size_t free_slots = cache.capacity() - cache.size();
  std::map<ItemId, std::optional<ItemId>> committed;  // fetch -> victim
  for (const ItemId f : by_profit) {
    if (free_slots > 0) {
      --free_slots;
      committed[f] = std::nullopt;
      continue;
    }
    if (resident.empty()) break;
    const ItemId d = choose_victim(inst, resident, &freq, cfg.arbitration);
    if (!admits_prefetch(inst, f, d)) break;
    resident.erase(std::find(resident.begin(), resident.end(), d));
    committed[f] = d;
  }

  PrefetchPlan out;
  for (const ItemId f : proposal) {
    const auto it = committed.find(f);
    if (it == committed.end()) continue;
    out.fetch.push_back(f);
    if (it->second) out.evict.push_back(*it->second);
  }
  return out;
}

// A sparse row has ties on purpose: `support` positive entries with small
// integer weights and integer r in 1..4, so equal P r values (and zero-Pr
// residents) leave many decisions to the sub-score and the id rule. A
// dense row gives every item continuous weight and r instead.
Instance admission_instance(Rng& rng, std::size_t n, bool dense,
                            std::size_t support) {
  Instance inst;
  inst.r.resize(n);
  if (dense) support = n;
  for (std::size_t i = 0; i < n; ++i) {
    inst.r[i] = dense ? rng.uniform(1.0, 4.0)
                      : static_cast<double>(rng.uniform_int(1, 4));
  }
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  rng.shuffle(ids);
  std::vector<double> w(n, 0.0);
  for (std::size_t k = 0; k < support; ++k) {
    w[ids[k]] = dense ? rng.uniform(0.1, 1.0)
                      : static_cast<double>(rng.uniform_int(1, 3));
  }
  inst.P = normalize_probabilities(w);
  inst.v = static_cast<double>(rng.uniform_int(4, 40));
  return inst;
}

// The eviction order a ResidentSet keeps under LFU/DS: every resident by
// descending (sub score, id).
std::vector<ItemId> kept_order(const Instance& inst, const SlotCache& cache,
                               const FreqTracker& freq, SubArbitration sub) {
  std::vector<ItemId> order(cache.contents().begin(),
                            cache.contents().end());
  const auto score = [&](ItemId i) {
    return sub == SubArbitration::DS
               ? freq.delay_saving_profit(i,
                                          inst.r[static_cast<std::size_t>(i)])
               : freq.frequency(i);
  };
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    const double sa = score(a);
    const double sb = score(b);
    return sa != sb ? sa > sb : a > b;
  });
  return order;
}

// One state against the reference loop: the plan without a kept order,
// and under LFU/DS the plan walking the kept order and the demand walk
// over it (choose_victim_in_order against choose_victim). Counts plans
// that evicted.
void check_admission(const PrefetchEngine& engine, const Instance& inst,
                     const SlotCache& cache, const FreqTracker& freq,
                     std::size_t& contested) {
  const EngineConfig& cfg = engine.config();
  const PrefetchPlan got = engine.plan_with_cache(inst, cache, &freq);
  const PrefetchPlan want = reference_plan(inst, cache, freq, cfg);
  ASSERT_EQ(got.fetch, want.fetch);
  ASSERT_EQ(got.evict, want.evict);
  if (!got.evict.empty()) ++contested;
  if (cfg.arbitration.sub == SubArbitration::None) return;
  const std::vector<ItemId> order =
      kept_order(inst, cache, freq, cfg.arbitration.sub);
  PlanScratch scratch;
  PrefetchPlan walked;
  engine.plan_with_cache_cached(inst, cache, &freq, PlanMemo{}, scratch,
                                walked, std::nullopt, std::nullopt, order);
  ASSERT_EQ(walked.fetch, want.fetch);
  ASSERT_EQ(walked.evict, want.evict);
  if (!cache.empty()) {
    ASSERT_EQ(choose_victim_in_order(inst, order),
              choose_victim(inst, cache.contents(), &freq,
                            cfg.arbitration));
  }
}

TEST(EngineAdmissionDifferential, MatchesChooseVictimReferenceLoop) {
  Rng rng(7700);
  std::size_t contested = 0;  // plans that evicted at least one item
  for (const std::size_t n : {10, 63, 64, 65, 130, 1000}) {
    for (const PrefetchPolicy policy :
         {PrefetchPolicy::KP, PrefetchPolicy::SKP}) {
      for (const SubArbitration sub :
           {SubArbitration::None, SubArbitration::LFU,
            SubArbitration::DS}) {
        EngineConfig cfg;
        cfg.policy = policy;
        cfg.arbitration.sub = sub;
        const PrefetchEngine engine(cfg);
        for (int trial = 0; trial < 24; ++trial) {
          const bool dense = trial % 3 == 2;
          const Instance inst = admission_instance(
              rng, n, dense, std::min<std::size_t>(n - 1, 3 + trial));
          const std::size_t capacity = std::max<std::size_t>(
              2, static_cast<std::size_t>(rng.next_below(n / 2 + 1)));
          SlotCache cache(n, capacity);
          std::vector<ItemId> ids(n);
          std::iota(ids.begin(), ids.end(), 0);
          rng.shuffle(ids);
          const std::size_t fill =
              trial % 2 == 0 ? capacity
                             : static_cast<std::size_t>(
                                   rng.next_below(capacity + 1));
          for (std::size_t k = 0; k < fill; ++k) cache.insert(ids[k]);
          FreqTracker freq(n);
          for (std::size_t k = 0; k < n / 2 + 5; ++k) {
            freq.record(static_cast<ItemId>(rng.next_below(n)));
          }

          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " " << to_string(policy) << " "
                       << to_string(sub) << " trial " << trial);
          ASSERT_NO_FATAL_FAILURE(
              check_admission(engine, inst, cache, freq, contested));
        }
      }
    }
  }
  // The comparison must reach the victim path, not only free slots.
  EXPECT_GT(contested, 200u);

  // LFU/DS states whose residents all have P > 0, so a kept-order walk
  // runs dry on its first contested candidate and ranks the positive
  // residents it passed: sparse rows with more positive items than slots
  // (ties left to sub scores and ids), and dense rows, which also walk
  // the whole order on a demand miss.
  Rng dry_rng(7701);
  std::size_t dry_contested = 0;
  for (const std::size_t n : {10, 65, 130}) {
    for (const PrefetchPolicy policy :
         {PrefetchPolicy::KP, PrefetchPolicy::SKP}) {
      for (const SubArbitration sub :
           {SubArbitration::LFU, SubArbitration::DS}) {
        EngineConfig cfg;
        cfg.policy = policy;
        cfg.arbitration.sub = sub;
        const PrefetchEngine engine(cfg);
        for (int trial = 0; trial < 16; ++trial) {
          const bool dense = trial % 2 == 1;
          const std::size_t capacity = std::max<std::size_t>(
              2, static_cast<std::size_t>(dry_rng.next_below(n / 2 + 1)));
          const std::size_t support = std::min<std::size_t>(
              n - 1, capacity + 2 +
                         static_cast<std::size_t>(
                             dry_rng.next_below(capacity + 1)));
          const Instance inst =
              admission_instance(dry_rng, n, dense, support);
          std::vector<ItemId> positive;
          for (std::size_t i = 0; i < n; ++i) {
            if (inst.P[i] > 0.0) positive.push_back(static_cast<ItemId>(i));
          }
          dry_rng.shuffle(positive);
          SlotCache cache(n, capacity);
          for (std::size_t k = 0; k < capacity; ++k) {
            cache.insert(positive[k]);
          }
          FreqTracker freq(n);
          for (std::size_t k = 0; k < n / 2 + 5; ++k) {
            freq.record(static_cast<ItemId>(dry_rng.next_below(n)));
          }
          SCOPED_TRACE(::testing::Message()
                       << "all-positive n=" << n << " "
                       << to_string(policy) << " " << to_string(sub)
                       << " trial " << trial << (dense ? " dense" : ""));
          ASSERT_NO_FATAL_FAILURE(
              check_admission(engine, inst, cache, freq, dry_contested));
        }
      }
    }
  }
  EXPECT_GT(dry_contested, 40u);
}

// Sized-planner analogue of the structural grid.
class SizedEngineTest : public ::testing::Test {};

TEST(SizedEngineTest, SizedPlansRespectCapacityAndDisjointness) {
  Rng rng(7500);
  for (int trial = 0; trial < 120; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 10;
    const Instance inst = testing::random_instance(rng, opt);
    std::vector<double> sizes(inst.n());
    for (auto& s : sizes) s = rng.uniform(1.0, 8.0);
    const double capacity = 20.0;
    SizedCache cache(sizes, capacity);
    // Random prefill.
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids);
    for (const ItemId i : ids) {
      if (cache.fits(i) && rng.bernoulli(0.6)) cache.insert(i);
    }
    FreqTracker freq(inst.n());
    EngineConfig ecfg;
    ecfg.policy = PrefetchPolicy::SKP;
    ecfg.arbitration.sub = SubArbitration::DS;
    for (int i = 0; i < 20; ++i) {
      freq.record(static_cast<ItemId>(rng.next_below(inst.n())));
    }
    const PrefetchEngine engine(ecfg);
    const auto plan = engine.plan_with_sized_cache(inst, cache, &freq);

    double incoming = 0.0, outgoing = 0.0;
    for (const ItemId f : plan.fetch) {
      EXPECT_FALSE(cache.contains(f));
      incoming += cache.size_of(f);
    }
    for (const ItemId d : plan.evict) {
      EXPECT_TRUE(cache.contains(d));
      outgoing += cache.size_of(d);
    }
    EXPECT_LE(cache.used() - outgoing + incoming, capacity + 1e-9);
    EXPECT_TRUE(is_valid_prefetch_list(inst, plan.fetch));
  }
}

}  // namespace
}  // namespace skp
