#include "core/kp_solver.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/brute_force.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

TEST(KpBb, HandCheckedSelection) {
  // small_instance: profits {5, 6, .75, .4}, weights {10, 20, 5, 8}, v=12.
  // Best within capacity 12: {0} (5) vs {2,3} (1.15) vs {0,... 0+2=15 no}.
  const Instance inst = testing::small_instance();
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_DOUBLE_EQ(sol.value, 5.0);
  EXPECT_EQ(sol.items, (std::vector<ItemId>{0}));
  EXPECT_DOUBLE_EQ(sol.weight, 10.0);
  EXPECT_FALSE(sol.node_limit_hit);
}

TEST(KpBb, TakesEverythingWhenCapacityLarge) {
  Instance inst = testing::small_instance();
  inst.v = 100.0;
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_EQ(sol.items.size(), 4u);
  EXPECT_NEAR(sol.value, 12.15, 1e-12);
}

TEST(KpBb, EmptyWhenNothingFits) {
  Instance inst = testing::small_instance();
  inst.v = 3.0;
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_TRUE(sol.items.empty());
  EXPECT_DOUBLE_EQ(sol.value, 0.0);
}

TEST(KpBb, ZeroCapacity) {
  Instance inst = testing::small_instance();
  inst.v = 0.0;
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_TRUE(sol.items.empty());
}

TEST(KpBb, RespectsCandidateSubset) {
  // r_2 + r_3 = 13 > v = 12 so only one fits; item 2 has higher profit.
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cand{2, 3};
  const KpSolution sol = solve_kp_bb(inst, cand);
  EXPECT_EQ(sol.items, (std::vector<ItemId>{2}));
  EXPECT_DOUBLE_EQ(sol.value, 0.75);
}

TEST(KpBb, SubsetCapacityRespected) {
  // r_2 + r_3 = 13 > v = 12, so only one of them fits; best is item 2
  // by profit? profit(2) = .75 > profit(3) = .4.
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cand{2, 3};
  const KpSolution sol = solve_kp_bb(inst, cand);
  double total_w = 0;
  for (ItemId i : sol.items) total_w += inst.r[Instance::idx(i)];
  EXPECT_LE(total_w, inst.v);
}

TEST(KpDp, MatchesBbOnIntegerInstances) {
  Rng rng(101);
  testing::RandomInstanceOptions opt;
  opt.n = 10;
  opt.integer_times = true;
  for (int trial = 0; trial < 100; ++trial) {
    const Instance inst = testing::random_instance(rng, opt);
    const KpSolution bb = solve_kp_bb(inst);
    const KpSolution dp = solve_kp_dp(inst);
    EXPECT_NEAR(bb.value, dp.value, 1e-9) << "trial " << trial;
  }
}

TEST(KpDp, RejectsFractionalWeights) {
  Instance inst = testing::small_instance();
  inst.r[0] = 10.5;
  EXPECT_THROW(solve_kp_dp(inst), std::invalid_argument);
}

TEST(KpDp, RejectsFractionalCapacity) {
  Instance inst = testing::small_instance();
  inst.v = 12.5;
  EXPECT_THROW(solve_kp_dp(inst), std::invalid_argument);
}

TEST(KpBb, MatchesBruteForce) {
  Rng rng(103);
  testing::RandomInstanceOptions opt;
  opt.n = 12;
  for (int trial = 0; trial < 100; ++trial) {
    const Instance inst = testing::random_instance(rng, opt);
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    const KpSolution bb = solve_kp_bb(inst);
    const BruteForceResult bf = brute_force_kp(inst, ids);
    EXPECT_NEAR(bb.value, bf.g, 1e-9) << "trial " << trial;
  }
}

// The KP twin of test_skp_solver's cold-start row: the same chain under
// KP (DriverPins' netsim_ppm_cold_kp) reaches a 30-candidate row (ids
// renumbered 0..29 in their original order) with integer r summing to
// 180 and v = 86. The Dantzig bound misses the perfect fill's value by
// an ulp, so the unbudgeted branch-and-bound visits 9,749,404 nodes.
TEST(KpBb, BudgetStopsTieBoundSearchWithItsOptimum) {
  Instance inst;
  inst.r = {17, 13, 2, 7, 2, 1, 11, 2, 8, 3, 6, 3, 1, 7, 4,
            7,  3,  7, 4, 6, 9, 8,  8, 10, 8, 9, 1, 5, 2, 6};
  inst.P.assign(inst.r.size(), 0.010565116279069866);
  inst.P[2] = 0.021030232558139732;
  inst.v = 86.0;
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_TRUE(sol.node_limit_hit);
  EXPECT_EQ(sol.nodes, kSolveNodeBudget);  // checked before each node
  // The selection and value the unbudgeted search returns.
  EXPECT_EQ(sol.items, (std::vector<ItemId>{2, 5, 12, 26, 4, 7, 28, 9, 11,
                                            16, 14, 18, 27, 10, 19, 29, 3,
                                            13, 8, 1}));
  EXPECT_EQ(sol.value, 0.92953023255814804);
  EXPECT_EQ(sol.weight, 86.0);
}

TEST(GreedyKp, NeverExceedsExact) {
  Rng rng(107);
  testing::RandomInstanceOptions opt;
  opt.n = 10;
  for (int trial = 0; trial < 100; ++trial) {
    const Instance inst = testing::random_instance(rng, opt);
    std::vector<ItemId> ids(inst.n());
    std::iota(ids.begin(), ids.end(), 0);
    const KpSolution greedy = greedy_kp(inst, ids);
    const KpSolution exact = solve_kp_bb(inst);
    EXPECT_LE(greedy.value, exact.value + 1e-9);
    EXPECT_LE(greedy.weight, inst.v);
  }
}

TEST(GreedyKp, TakesInCanonicalOrder) {
  const Instance inst = testing::small_instance();
  std::vector<ItemId> ids{0, 1, 2, 3};
  const KpSolution sol = greedy_kp(inst, ids);
  // Canonical order 0,1,2,3: take 0 (10), skip 1 (20), skip 2 (5 > 2)...
  EXPECT_EQ(sol.items.front(), 0);
}

TEST(DantzigBound, UpperBoundsExactSolution) {
  Rng rng(109);
  testing::RandomInstanceOptions opt;
  opt.n = 12;
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng, opt);
    const auto order = canonical_order(inst);
    const double bound = dantzig_bound(inst, order, 0, inst.v);
    const KpSolution exact = solve_kp_bb(inst);
    EXPECT_GE(bound, exact.value - 1e-9) << "trial " << trial;
  }
}

TEST(DantzigBound, ExactWhenAllFit) {
  Instance inst = testing::small_instance();
  inst.v = 100.0;
  const auto order = canonical_order(inst);
  EXPECT_NEAR(dantzig_bound(inst, order, 0, inst.v), 12.15, 1e-12);
}

TEST(DantzigBound, ZeroForNonPositiveCapacity) {
  const Instance inst = testing::small_instance();
  const auto order = canonical_order(inst);
  EXPECT_DOUBLE_EQ(dantzig_bound(inst, order, 0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(dantzig_bound(inst, order, 0, -5.0), 0.0);
}

TEST(DantzigBound, FractionalFill) {
  // Capacity 5 with order {0 (r=10, P=.5), ...}: bound = 5 * 0.5 = 2.5.
  const Instance inst = testing::small_instance();
  const auto order = canonical_order(inst);
  EXPECT_DOUBLE_EQ(dantzig_bound(inst, order, 0, 5.0), 2.5);
}

TEST(DantzigBound, FromOffsetSkipsPrefix) {
  const Instance inst = testing::small_instance();
  const auto order = canonical_order(inst);
  // From index 2 (items 2, 3): both fit in capacity 13.
  EXPECT_NEAR(dantzig_bound(inst, order, 2, 13.0), 1.15, 1e-12);
}

TEST(KpBb, ReportsSearchStatistics) {
  Rng rng(113);
  testing::RandomInstanceOptions opt;
  opt.n = 14;
  const Instance inst = testing::random_instance(rng, opt);
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_GT(sol.nodes, 0u);
}

TEST(KpBb, SingleItemInstance) {
  Instance inst;
  inst.P = {1.0};
  inst.r = {5.0};
  inst.v = 10.0;
  const KpSolution sol = solve_kp_bb(inst);
  EXPECT_EQ(sol.items, (std::vector<ItemId>{0}));
  EXPECT_DOUBLE_EQ(sol.value, 5.0);
}

}  // namespace
}  // namespace skp
