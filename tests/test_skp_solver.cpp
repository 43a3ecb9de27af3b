#include "core/skp_solver.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/access_model.hpp"
#include "core/brute_force.hpp"
#include "core/kp_solver.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

TEST(SkpSolver, HandCheckedStretchSolution) {
  // small_instance: P {.5,.3,.15,.05}, r {10,20,5,8}, v = 12.
  // Candidate lists: {0} -> g = 5; {0,2} -> 5.75 - .5*3 = 4.25;
  // {0,1} -> 11 - .5*18 = 2; {0,2,...}. Optimum is {0} with g = 5?
  // Check {0,3}: 5.4 - .5*6 = 2.4. {0,2} = 4.25. So F = {0}.
  const Instance inst = testing::small_instance();
  const SkpSolution sol = solve_skp(inst);
  EXPECT_EQ(sol.F, (PrefetchList{0}));
  EXPECT_DOUBLE_EQ(sol.g, 5.0);
  EXPECT_DOUBLE_EQ(sol.stretch, 0.0);
}

TEST(SkpSolver, StretchingBeatsNotStretching) {
  // One dominant item whose retrieval exceeds v: prefetching it with
  // stretch still wins. P = {.9, .1}, r = {20, 2}, v = 10.
  // F = {0}: g = .9*20 - 1*10 = 8. F = {1}: g = .2. F = {1,0}: g = 18.2
  // - (1 - .1)*12 = 7.4. F = {0,1}? K={0} sum 20 >= 10 invalid.
  Instance inst;
  inst.P = {0.9, 0.1};
  inst.r = {20.0, 2.0};
  inst.v = 10.0;
  const SkpSolution sol = solve_skp(inst);
  EXPECT_EQ(sol.F, (PrefetchList{0}));
  EXPECT_DOUBLE_EQ(sol.g, 8.0);
  EXPECT_DOUBLE_EQ(sol.stretch, 10.0);
}

TEST(SkpSolver, EmptyWhenViewingTimeZero) {
  Instance inst = testing::small_instance();
  inst.v = 0.0;
  const SkpSolution sol = solve_skp(inst);
  EXPECT_TRUE(sol.F.empty());
  EXPECT_DOUBLE_EQ(sol.g, 0.0);
}

TEST(SkpSolver, TakesAllWhenTimeAbounds) {
  Instance inst = testing::small_instance();
  inst.v = 1000.0;
  const SkpSolution sol = solve_skp(inst);
  EXPECT_EQ(sol.F.size(), 4u);
  EXPECT_NEAR(sol.g, 12.15, 1e-12);
}

TEST(SkpSolver, ReturnedListIsValidAndCanonical) {
  Rng rng(201);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    const SkpSolution sol = solve_skp(inst);
    EXPECT_TRUE(is_valid_prefetch_list(inst, sol.F));
    EXPECT_TRUE(is_canonically_sorted(inst, sol.F));
  }
}

TEST(SkpSolver, ReportedGMatchesEq3) {
  Rng rng(203);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    const SkpSolution sol = solve_skp(inst);
    if (sol.F.empty()) {
      EXPECT_DOUBLE_EQ(sol.g, 0.0);
    } else {
      EXPECT_NEAR(sol.g, access_improvement(inst, sol.F), 1e-9)
          << "trial " << trial;
    }
  }
}

TEST(SkpSolver, GIsNeverNegative) {
  // Prefetching nothing always achieves g = 0, so the optimum is >= 0.
  Rng rng(205);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    EXPECT_GE(solve_skp(inst).g, 0.0);
  }
}

TEST(SkpSolver, AtLeastAsGoodAsKp) {
  // Every KP-feasible selection is SKP-feasible with zero stretch, so the
  // SKP optimum dominates the KP optimum.
  Rng rng(207);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    const double kp = solve_kp_bb(inst).value;
    const double skp = solve_skp(inst).g;
    EXPECT_GE(skp, kp - 1e-9) << "trial " << trial;
  }
}

TEST(SkpSolver, BoundedByUpperBound) {
  Rng rng(209);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    const double ub = skp_upper_bound(inst);
    const double g = solve_skp(inst).g;
    EXPECT_LE(g, ub + 1e-9) << "trial " << trial;
  }
}

TEST(SkpSolver, RespectsCandidateSubset) {
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cand{2, 3};
  const SkpSolution sol = solve_skp(inst, cand);
  for (ItemId i : sol.F) {
    EXPECT_TRUE(i == 2 || i == 3);
  }
}

TEST(SkpSolver, ZeroProbabilityItemsNeverSelected) {
  Instance inst;
  inst.P = {0.6, 0.0, 0.4, 0.0};
  inst.r = {5.0, 1.0, 5.0, 1.0};
  inst.v = 20.0;
  const SkpSolution sol = solve_skp(inst);
  for (ItemId i : sol.F) {
    EXPECT_GT(inst.P[Instance::idx(i)], 0.0);
  }
}

// The row one request of the cold-started ppm chain pinned as
// DriverPins' netsim_ppm_cold_skp planned on: 30 candidates (ids
// renumbered 0..29 in their original order), 29 of them at one P and
// item 2 at about twice it, integer r summing to 181, v = 86. A perfect
// fill exists, so in exact arithmetic Eq. (7)'s bound meets the
// incumbent; in floating point it misses by an ulp, no branch is pruned,
// and the unbudgeted search takes 19,796,665 forward steps.
Instance cold_start_skp_instance() {
  Instance inst;
  inst.r = {17, 13, 2, 7, 2, 1, 11, 2, 8, 3, 9, 6, 3, 1, 7,
            4,  7,  3, 7, 4, 6, 9,  8, 10, 8, 9, 1, 5, 2, 6};
  inst.P.assign(inst.r.size(), 0.010565116279069866);
  inst.P[2] = 0.021030232558139732;
  inst.v = 86.0;
  return inst;
}

TEST(SkpSolver, BudgetStopsTieBoundSearchWithItsOptimum) {
  const Instance inst = cold_start_skp_instance();
  const SkpSolution sol = solve_skp(inst);
  EXPECT_TRUE(sol.node_limit_hit);
  // The budget is checked between forward passes; the pass in flight
  // when the count reached it took two more steps.
  EXPECT_EQ(sol.forward_steps, kSolveNodeBudget + 2);
  // The list and g the unbudgeted search returns: a perfect fill of v.
  EXPECT_EQ(sol.F, (PrefetchList{2, 5, 13, 26, 4, 7, 28, 9, 12, 17, 15, 19,
                                 27, 11, 20, 29, 3, 14, 8, 1}));
  EXPECT_EQ(sol.g, 0.92953023255814804);
  EXPECT_EQ(sol.stretch, 0.0);
}

TEST(SkpSolver, StatisticsPopulated) {
  Rng rng(213);
  testing::RandomInstanceOptions opt;
  opt.n = 12;
  const Instance inst = testing::random_instance(rng, opt);
  const SkpSolution sol = solve_skp(inst);
  EXPECT_GT(sol.forward_steps, 0u);
  EXPECT_FALSE(sol.node_limit_hit);
}

TEST(SkpSolver, PaperTailRuleAlsoValidList) {
  Rng rng(215);
  SkpOptions opts;
  opts.delta_rule = DeltaRule::PaperTail;
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = testing::random_instance(rng);
    const SkpSolution sol = solve_skp(inst, opts);
    EXPECT_TRUE(is_valid_prefetch_list(inst, sol.F));
    EXPECT_TRUE(is_canonically_sorted(inst, sol.F));
  }
}

TEST(SkpSolver, SingleItem) {
  Instance inst;
  inst.P = {1.0};
  inst.r = {5.0};
  inst.v = 3.0;
  // g = 5 - 1 * 2 = 3 (prefetch with stretch 2) vs 0; prefetch wins.
  const SkpSolution sol = solve_skp(inst);
  EXPECT_EQ(sol.F, (PrefetchList{0}));
  EXPECT_DOUBLE_EQ(sol.g, 3.0);
  EXPECT_DOUBLE_EQ(sol.stretch, 2.0);
}

TEST(SkpUpperBound, MatchesEq7HandComputation) {
  // Canonical order 0,1,2,3; v = 12: item 0 fits (10), item 1 does not.
  // U = P_0 r_0 + (12 - 10) * P_1 = 5 + 2 * .3 = 5.6.
  const Instance inst = testing::small_instance();
  EXPECT_DOUBLE_EQ(skp_upper_bound(inst), 5.6);
}

}  // namespace
}  // namespace skp
