// Property-based validation of the SKP machinery against exhaustive
// search, across a parameter grid of catalog sizes, time regimes and
// probability shapes (TEST_P sweeps).
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/access_model.hpp"
#include "core/brute_force.hpp"
#include "core/kp_solver.hpp"
#include "core/skp_solver.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

struct GridParam {
  std::size_t n;
  double v_hi;        // v ~ U(1, v_hi): small v forces stretch decisions
  ProbMethod method;
  bool integer_times;
};

std::string param_name(
    const ::testing::TestParamInfo<GridParam>& info) {
  const auto& p = info.param;
  std::string s = "n" + std::to_string(p.n) + "_v" +
                  std::to_string(static_cast<int>(p.v_hi)) + "_" +
                  to_string(p.method) + (p.integer_times ? "_int" : "_real");
  return s;
}

class SkpGridTest : public ::testing::TestWithParam<GridParam> {
 protected:
  Instance draw(Rng& rng) const {
    const auto& p = GetParam();
    testing::RandomInstanceOptions opt;
    opt.n = p.n;
    opt.v_lo = 1.0;
    opt.v_hi = p.v_hi;
    opt.method = p.method;
    opt.integer_times = p.integer_times;
    return testing::random_instance(rng, opt);
  }
};

TEST_P(SkpGridTest, ExactComplementMatchesCanonicalBruteForce) {
  // The Figure-3 search space is the canonical-order subspace; within it
  // the ExactComplement solver must find the optimum.
  Rng rng(1000 + GetParam().n);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = draw(rng);
    const SkpSolution sol = solve_skp(inst);
    const BruteForceResult bf = brute_force_skp_canonical(inst);
    EXPECT_NEAR(sol.g, bf.g, 1e-9)
        << "trial " << trial << " n=" << inst.n() << " v=" << inst.v;
  }
}

TEST_P(SkpGridTest, FullSpaceDominatesCanonical) {
  // The unrestricted (subset, z) space contains the canonical subspace, so
  // its optimum can only be larger (see DESIGN.md D8 for why it sometimes
  // strictly is).
  Rng rng(1500 + GetParam().n);
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = draw(rng);
    const BruteForceResult full = brute_force_skp(inst);
    const BruteForceResult canon = brute_force_skp_canonical(inst);
    EXPECT_GE(full.g, canon.g - 1e-9);
  }
}

TEST_P(SkpGridTest, SolverGConsistentWithFormula) {
  Rng rng(2000 + GetParam().n);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = draw(rng);
    const SkpSolution sol = solve_skp(inst);
    const double formula =
        sol.F.empty() ? 0.0 : access_improvement(inst, sol.F);
    EXPECT_NEAR(sol.g, formula, 1e-9);
  }
}

TEST_P(SkpGridTest, PaperTailNeverBeatsExactTruth) {
  // The PaperTail rule may *report* an inflated g-hat, but the true g of
  // whatever list it returns can never exceed the exhaustive optimum.
  Rng rng(3000 + GetParam().n);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = draw(rng);
    SkpOptions opts;
    opts.delta_rule = DeltaRule::PaperTail;
    const SkpSolution sol = solve_skp(inst, opts);
    const double true_g =
        sol.F.empty() ? 0.0 : access_improvement(inst, sol.F);
    const BruteForceResult bf = brute_force_skp(inst);
    EXPECT_LE(true_g, bf.g + 1e-9);
  }
}

TEST_P(SkpGridTest, SkpDominatesKp) {
  Rng rng(4000 + GetParam().n);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = draw(rng);
    EXPECT_GE(solve_skp(inst).g, solve_kp_bb(inst).value - 1e-9);
  }
}

TEST_P(SkpGridTest, UpperBoundHolds) {
  Rng rng(5000 + GetParam().n);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = draw(rng);
    const double ub = skp_upper_bound(inst);
    const BruteForceResult bf = brute_force_skp(inst);
    EXPECT_GE(ub, bf.g - 1e-9);
  }
}

TEST_P(SkpGridTest, Theorem1MinProbabilityLast) {
  // When the optimal list stretches, its last element carries the minimal
  // probability among its members (Theorem 1).
  Rng rng(6000 + GetParam().n);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = draw(rng);
    const SkpSolution sol = solve_skp(inst);
    if (sol.F.size() < 2 || sol.stretch <= 0.0) continue;
    const double pz = inst.P[Instance::idx(sol.F.back())];
    for (ItemId i : sol.F) {
      EXPECT_GE(inst.P[Instance::idx(i)], pz - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SkpGridTest,
    ::testing::Values(
        GridParam{2, 10.0, ProbMethod::Flat, false},
        GridParam{4, 10.0, ProbMethod::Flat, false},
        GridParam{4, 40.0, ProbMethod::Skewy, false},
        GridParam{6, 10.0, ProbMethod::Flat, true},
        GridParam{6, 60.0, ProbMethod::Skewy, true},
        GridParam{8, 20.0, ProbMethod::Flat, false},
        GridParam{8, 80.0, ProbMethod::Skewy, false},
        GridParam{10, 30.0, ProbMethod::Flat, true},
        GridParam{10, 100.0, ProbMethod::Skewy, false},
        GridParam{12, 50.0, ProbMethod::Flat, false},
        GridParam{12, 15.0, ProbMethod::Skewy, true},
        GridParam{14, 60.0, ProbMethod::Flat, false}),
    param_name);

// Degenerate shapes exercised separately from the random grid.

TEST(SkpEdgeCases, Theorem1ValidityGapCounterexample) {
  // DESIGN.md D8: Theorem 1's exchange argument assumes the swapped list
  // stays Eq.-(1)-valid. Counterexample: P = {.6, .4}, r = {10, 1}, v = 5.
  //   canonical space:  <0> with g = 6 - 5 = 1 is the best reachable;
  //   full space:       <1, 0> (z = 0, st = 6) has
  //                     g = 6.4 - (1 - .4) * 6 = 2.8 > 1,
  // yet z = 0 is the *max*-probability member — Theorem 1's conclusion
  // fails because the swap would produce the invalid list <0, 1>.
  Instance inst;
  inst.P = {0.6, 0.4};
  inst.r = {10.0, 1.0};
  inst.v = 5.0;
  const SkpSolution sol = solve_skp(inst);
  EXPECT_DOUBLE_EQ(sol.g, 1.0);
  EXPECT_EQ(sol.F, (PrefetchList{0}));
  const BruteForceResult canon = brute_force_skp_canonical(inst);
  EXPECT_DOUBLE_EQ(canon.g, 1.0);
  const BruteForceResult full = brute_force_skp(inst);
  EXPECT_DOUBLE_EQ(full.g, 2.8);
  EXPECT_EQ(full.F, (PrefetchList{1, 0}));
  // Permutation enumeration agrees with the (subset, z) reduction.
  const BruteForceResult perms = brute_force_skp_permutations(inst);
  EXPECT_DOUBLE_EQ(perms.g, 2.8);
}

TEST(SkpEdgeCases, AllItemsIdentical) {
  Instance inst;
  inst.P = {0.25, 0.25, 0.25, 0.25};
  inst.r = {6.0, 6.0, 6.0, 6.0};
  inst.v = 12.0;
  const SkpSolution sol = solve_skp(inst);
  const BruteForceResult bf = brute_force_skp(inst);
  EXPECT_NEAR(sol.g, bf.g, 1e-12);
}

TEST(SkpEdgeCases, OneDominantItem) {
  Instance inst;
  inst.P = {0.97, 0.01, 0.01, 0.01};
  inst.r = {25.0, 1.0, 1.0, 1.0};
  inst.v = 5.0;
  const SkpSolution sol = solve_skp(inst);
  const BruteForceResult bf = brute_force_skp(inst);
  EXPECT_NEAR(sol.g, bf.g, 1e-12);
  // The dominant item must be fetched despite the heavy stretch.
  ASSERT_FALSE(sol.F.empty());
  EXPECT_EQ(sol.F.front(), 0);
}

TEST(SkpEdgeCases, TinyProbabilitiesWithHugeRetrievals) {
  Instance inst;
  inst.P = {0.001, 0.001, 0.998};
  inst.r = {1000.0, 1000.0, 1.0};
  inst.v = 2.0;
  const SkpSolution sol = solve_skp(inst);
  const BruteForceResult bf = brute_force_skp(inst);
  EXPECT_NEAR(sol.g, bf.g, 1e-9);
  // Fetching item 2 (P=.998, r=1) within v=2 is clearly optimal.
  EXPECT_EQ(sol.F, (PrefetchList{2}));
}

TEST(SkpEdgeCases, ViewingTimeExactlyEqualsTotalRetrieval) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {5.0, 5.0};
  inst.v = 10.0;
  const SkpSolution sol = solve_skp(inst);
  EXPECT_EQ(sol.F.size(), 2u);
  EXPECT_DOUBLE_EQ(sol.stretch, 0.0);
  EXPECT_NEAR(sol.g, 5.0, 1e-12);
}

TEST(SkpEdgeCases, SubUnitMassCatalog) {
  // Cache-aware candidates: probabilities sum below 1.
  Instance inst;
  inst.P = {0.3, 0.2};
  inst.r = {8.0, 4.0};
  inst.v = 6.0;
  const SkpSolution sol = solve_skp(inst);
  const BruteForceResult bf = brute_force_skp(inst);
  EXPECT_NEAR(sol.g, bf.g, 1e-12);
}

}  // namespace
}  // namespace skp
