#include "core/brute_force.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/access_model.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

TEST(BruteForceSkp, EmptyBeatsAllNegativeOptions) {
  // v tiny, all items huge and improbable: best is to prefetch nothing.
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {100.0, 100.0};
  inst.v = 1.0;
  const BruteForceResult res = brute_force_skp(inst);
  EXPECT_TRUE(res.F.empty());
  EXPECT_DOUBLE_EQ(res.g, 0.0);
}

TEST(BruteForceSkp, ReturnedListConsistentWithG) {
  Rng rng(301);
  for (int trial = 0; trial < 100; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 8;
    const Instance inst = testing::random_instance(rng, opt);
    const BruteForceResult res = brute_force_skp(inst);
    if (res.F.empty()) continue;
    EXPECT_TRUE(is_valid_prefetch_list(inst, res.F));
    EXPECT_NEAR(res.g, access_improvement(inst, res.F), 1e-9);
  }
}

TEST(BruteForceSkp, MatchesPermutationEnumeration) {
  // The (subset, z) reduction must agree with raw permutation search.
  Rng rng(303);
  for (int trial = 0; trial < 40; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 6;
    opt.v_hi = 30.0;  // small v so stretches happen
    const Instance inst = testing::random_instance(rng, opt);
    const BruteForceResult subsets = brute_force_skp(inst);
    const BruteForceResult perms = brute_force_skp_permutations(inst);
    EXPECT_NEAR(subsets.g, perms.g, 1e-9) << "trial " << trial;
  }
}

TEST(BruteForceSkp, CanonicalIsSubsetOfFull) {
  Rng rng(305);
  for (int trial = 0; trial < 100; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 8;
    opt.v_hi = 25.0;
    const Instance inst = testing::random_instance(rng, opt);
    const BruteForceResult full = brute_force_skp(inst);
    const BruteForceResult canon = brute_force_skp_canonical(inst);
    EXPECT_GE(full.g, canon.g - 1e-12);
    if (!canon.F.empty()) {
      EXPECT_TRUE(is_canonically_sorted(inst, canon.F));
      EXPECT_TRUE(is_valid_prefetch_list(inst, canon.F));
    }
  }
}

TEST(BruteForceSkp, ThrowsOverItemCap) {
  Instance inst;
  inst.P.assign(30, 1.0 / 30);
  inst.r.assign(30, 1.0);
  inst.v = 5.0;
  EXPECT_THROW(brute_force_skp(inst, 22), std::invalid_argument);
}

TEST(BruteForceSkp, SingleItemStretch) {
  Instance inst;
  inst.P = {1.0};
  inst.r = {10.0};
  inst.v = 4.0;
  const BruteForceResult res = brute_force_skp(inst);
  EXPECT_EQ(res.F, (PrefetchList{0}));
  EXPECT_DOUBLE_EQ(res.g, 4.0);  // 10 - 1 * 6
}

TEST(BruteForceSkp, CountsEvaluations) {
  const Instance inst = testing::small_instance();
  const BruteForceResult res = brute_force_skp(inst);
  EXPECT_GT(res.evaluated, 0u);
}

TEST(BruteForceKp, SimpleSelection) {
  const Instance inst = testing::small_instance();
  std::vector<ItemId> ids(inst.n());
  std::iota(ids.begin(), ids.end(), 0);
  const BruteForceResult res = brute_force_kp(inst, ids);
  EXPECT_DOUBLE_EQ(res.g, 5.0);  // {0} within v = 12
}

TEST(BruteForceKp, RespectsCapacityStrictly) {
  Rng rng(307);
  for (int trial = 0; trial < 50; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 8;
    const Instance inst = testing::random_instance(rng, opt);
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    const BruteForceResult res = brute_force_kp(inst, ids);
    double w = 0;
    for (ItemId i : res.F) w += inst.r[Instance::idx(i)];
    EXPECT_LE(w, inst.v + 1e-12);
  }
}

TEST(BruteForcePermutations, RespectsItemCap) {
  Instance inst;
  inst.P.assign(10, 0.1);
  inst.r.assign(10, 1.0);
  inst.v = 5.0;
  EXPECT_THROW(brute_force_skp_permutations(inst, 8), std::invalid_argument);
}

}  // namespace
}  // namespace skp
