#include "core/lookahead.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/prefetch_cache.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

double sum(const std::vector<double>& p) {
  double s = 0;
  for (double x : p) s += x;
  return s;
}

// A tiny deterministic 3-state chain: 0 -> 1 -> 2 -> 0.
std::vector<std::vector<double>> cycle_matrix() {
  return {{0, 1, 0}, {0, 0, 1}, {1, 0, 0}};
}

TEST(Lookahead, HorizonOneIsThePlainRow) {
  const auto m = cycle_matrix();
  const std::vector<double> row{0, 1, 0};
  const auto p = horizon_probabilities(m, row, 1);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
}

TEST(Lookahead, HorizonTwoBlendsNextStep) {
  const auto m = cycle_matrix();
  const std::vector<double> row{0, 1, 0};
  // Step 1: {0,1,0} weight 1; step 2: {0,0,1} weight .5 -> normalized.
  const auto p = horizon_probabilities(m, row, 2, 0.5);
  EXPECT_NEAR(p[1], 1.0 / 1.5, 1e-12);
  EXPECT_NEAR(p[2], 0.5 / 1.5, 1e-12);
  EXPECT_NEAR(sum(p), 1.0, 1e-12);
}

TEST(Lookahead, DeepHorizonStaysNormalized) {
  const auto m = cycle_matrix();
  const std::vector<double> row{0, 1, 0};
  for (std::size_t h = 1; h <= 6; ++h) {
    EXPECT_NEAR(sum(horizon_probabilities(m, row, h, 0.7)), 1.0, 1e-12);
  }
}

TEST(Lookahead, DecayOneWeighsStepsEqually) {
  const auto m = cycle_matrix();
  const std::vector<double> row{0, 1, 0};
  const auto p = horizon_probabilities(m, row, 3, 1.0);
  // Three steps visit 1, 2, 0 once each.
  EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(p[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(p[2], 1.0 / 3.0, 1e-12);
}

TEST(Lookahead, Validation) {
  const auto m = cycle_matrix();
  const std::vector<double> row{0, 1, 0};
  EXPECT_THROW(horizon_probabilities(m, row, 0), std::invalid_argument);
  EXPECT_THROW(horizon_probabilities(m, row, 2, 0.0),
               std::invalid_argument);
  EXPECT_THROW(horizon_probabilities(m, row, 2, 1.5),
               std::invalid_argument);
  const std::vector<std::vector<double>> ragged{{1, 0}, {0, 1, 0}};
  EXPECT_THROW(
      horizon_probabilities(ragged, std::vector<double>{1, 0}, 2),
      std::invalid_argument);
}

TEST(Lookahead, MarkovSourceOverloadMatchesMatrixOverload) {
  // The chain overload a MarkovSource plans with steps over successor
  // lists; the dense matrix overload is the reference, bit for bit. The
  // two share the blend kernel, so an FNV-1a digest of the blends (the
  // value the dense rows produced) also pins the order it sums in.
  Rng rng(71);
  MarkovSourceConfig cfg;
  cfg.n_states = 15;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 5;
  const MarkovSource src(cfg, rng);
  std::vector<std::vector<double>> m(cfg.n_states);
  for (std::size_t s = 0; s < cfg.n_states; ++s) m[s] = src.instance_at(s).P;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::size_t h = 1; h <= 4; ++h) {
    for (std::size_t s = 0; s < cfg.n_states; ++s) {
      const auto a = horizon_probabilities(src.chain(), s, h, 0.6);
      const auto b = horizon_probabilities(m, m[s], h, 0.6);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[j]),
                  std::bit_cast<std::uint64_t>(b[j]))
            << "h=" << h << " s=" << s << " j=" << j;
        digest = (digest ^ std::bit_cast<std::uint64_t>(a[j])) *
                 0x100000001b3ull;
      }
    }
  }
  EXPECT_EQ(digest, 0xe7305056f6723bb9ull);
}

TEST(Lookahead, HorizonTwoMatchesHandChainCalculation) {
  // 2-state chain with P(0->1) = .8, P(0->0) = .2 etc.
  const std::vector<std::vector<double>> m{{0.2, 0.8}, {0.6, 0.4}};
  const auto p = horizon_probabilities(m, m[0], 2, 0.5);
  // step1 = {.2, .8}; step2 = {.2*.2+.8*.6, .2*.8+.8*.4} = {.52, .48}
  // blended = ({.2,.8} + .5*{.52,.48}) / 1.5
  EXPECT_NEAR(p[0], (0.2 + 0.26) / 1.5, 1e-12);
  EXPECT_NEAR(p[1], (0.8 + 0.24) / 1.5, 1e-12);
}

TEST(LookaheadSim, DeeperHorizonHelpsWithRoomyCache) {
  // With a cache big enough to keep step-2 items around, a 2-step horizon
  // should not hurt and typically helps (more cache hits).
  SimSpec base;  // prefetch_cache driver, markov workload
  base.workload.n_items = 40;
  base.workload.out_degree_lo = 4;
  base.workload.out_degree_hi = 8;
  base.cache_size = 20;
  base.requests = 5000;
  base.seed = 21;
  auto run_h = [&](std::size_t h) {
    return run_prefetch_cache_lookahead(base, h).metrics.mean_access_time();
  };
  const double h1 = run_h(1);
  const double h2 = run_h(2);
  EXPECT_LT(h2, h1 * 1.1);  // never materially worse
}

TEST(LookaheadSim, HorizonOneIsThePaperBehaviour) {
  SimSpec a;  // prefetch_cache driver, markov workload
  a.workload.n_items = 30;
  a.workload.out_degree_lo = 4;
  a.workload.out_degree_hi = 6;
  a.cache_size = 8;
  a.requests = 2000;
  a.seed = 5;
  // Horizon 1 given explicitly to the lookahead entry.
  EXPECT_DOUBLE_EQ(
      run_prefetch_cache(a).metrics.mean_access_time(),
      run_prefetch_cache_lookahead(a, 1).metrics.mean_access_time());
}

}  // namespace
}  // namespace skp
