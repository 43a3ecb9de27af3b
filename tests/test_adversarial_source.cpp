// Tests for the adversarial two-clique request source
// (workload/adversarial_source.hpp): row structure, determinism, the
// clique ping-pong, and the plan-cache thrash it exists to produce.
#include "workload/adversarial_source.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/runtime.hpp"
#include "util/rng.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

AdversarialSourceConfig small() {
  AdversarialSourceConfig cfg;
  cfg.n_items = 24;
  cfg.hot_set = 8;
  cfg.escape_prob = 0.02;
  return cfg;
}

TEST(AdversarialSource, CliqueRowStructure) {
  Rng rng(7);
  const auto cfg = small();
  MarkovSource src(make_adversarial_chain(cfg, rng));
  const std::size_t h = cfg.hot_set;
  ASSERT_EQ(src.n_states(), cfg.n_items);

  // Hot states: uniform over the (h-1) OTHER members of the own clique,
  // escape mass spread uniformly over the rival clique, nothing else.
  const double stay = (1.0 - cfg.escape_prob) / static_cast<double>(h - 1);
  const double defect = cfg.escape_prob / static_cast<double>(h);
  for (std::size_t s = 0; s < 2 * h; ++s) {
    const bool in_a = s < h;
    const auto row = src.view_at(s).P;
    double sum = 0.0;
    for (std::size_t j = 0; j < src.n_states(); ++j) {
      sum += row[j];
      if (j == s) {
        EXPECT_EQ(row[j], 0.0) << "self-loop at state " << s;
        continue;
      }
      const bool j_in_own = in_a ? j < h : (j >= h && j < 2 * h);
      const bool j_in_rival = in_a ? (j >= h && j < 2 * h) : j < h;
      if (j_in_own) {
        EXPECT_NEAR(row[j], stay, 1e-12) << s << " -> " << j;
      } else if (j_in_rival) {
        EXPECT_NEAR(row[j], defect, 1e-12) << s << " -> " << j;
      } else {
        EXPECT_EQ(row[j], 0.0) << s << " -> " << j;
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << s;
  }

  // Cold states drop the walk uniformly into clique A.
  for (std::size_t s = 2 * h; s < cfg.n_items; ++s) {
    const auto row = src.view_at(s).P;
    double sum = 0.0;
    for (std::size_t j = 0; j < src.n_states(); ++j) {
      sum += row[j];
      if (j < h) {
        EXPECT_NEAR(row[j], 1.0 / static_cast<double>(h), 1e-12);
      } else {
        EXPECT_EQ(row[j], 0.0);
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "cold row " << s;
  }
}

TEST(AdversarialSource, DeterministicInTheRngStream) {
  Rng a(42), b(42), c(43);
  const auto cfg = small();
  const MarkovSource sa(make_adversarial_chain(cfg, a));
  const MarkovSource sb(make_adversarial_chain(cfg, b));
  const MarkovSource sc(make_adversarial_chain(cfg, c));
  bool any_diff = false;
  for (std::size_t s = 0; s < sa.n_states(); ++s) {
    EXPECT_EQ(sa.viewing_time(s), sb.viewing_time(s));
    EXPECT_EQ(sa.retrieval_time(static_cast<ItemId>(s)),
              sb.retrieval_time(static_cast<ItemId>(s)));
    if (sa.viewing_time(s) != sc.viewing_time(s) ||
        sa.retrieval_time(static_cast<ItemId>(s)) !=
            sc.retrieval_time(static_cast<ItemId>(s))) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff) << "catalogs must depend on the rng stream";
}

TEST(AdversarialSource, WalkPingPongsBetweenCliques) {
  Rng build(7);
  auto cfg = small();
  cfg.escape_prob = 0.25;  // frequent defections so a short walk flips
  MarkovSource src(make_adversarial_chain(cfg, build));
  const std::size_t h = cfg.hot_set;

  // A cold entry state must drop straight into clique A.
  src.teleport(2 * h);
  Rng walk(11);
  std::size_t s = src.step(walk);
  EXPECT_LT(s, h);

  std::set<bool> cliques_seen;
  for (int i = 0; i < 400; ++i) {
    s = src.step(walk);
    ASSERT_LT(s, 2 * h) << "the walk never re-enters cold states";
    cliques_seen.insert(s < h);
  }
  EXPECT_EQ(cliques_seen.size(), 2u) << "walk stuck in one clique";
}

TEST(AdversarialSource, RejectsDegenerateConfigs) {
  Rng rng(1);
  auto cfg = small();
  cfg.hot_set = 1;  // no "other member" to move to
  EXPECT_THROW(make_adversarial_chain(cfg, rng), std::invalid_argument);
  cfg = small();
  cfg.hot_set = 13;  // 2*13 > 24: cliques would overlap
  EXPECT_THROW(make_adversarial_chain(cfg, rng), std::invalid_argument);
  cfg = small();
  cfg.escape_prob = 0.0;  // walk could never defect
  EXPECT_THROW(make_adversarial_chain(cfg, rng), std::invalid_argument);
  cfg = small();
  cfg.escape_prob = 1.0;  // no within-clique mass left
  EXPECT_THROW(make_adversarial_chain(cfg, rng), std::invalid_argument);
  cfg = small();
  cfg.v_lo = 10.0;
  cfg.v_hi = 5.0;
  EXPECT_THROW(make_adversarial_chain(cfg, rng), std::invalid_argument);
}

SimSpec thrash_spec(SimWorkloadKind kind) {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchCache;
  spec.workload.kind = kind;
  spec.workload.n_items = 24;
  spec.workload.adv_hot_set = 8;
  spec.workload.adv_escape = 0.02;
  spec.workload.out_degree_lo = 4;  // markov baseline shape
  spec.workload.out_degree_hi = 8;
  spec.predictor = PredictorKind::Oracle;
  spec.cache_size = 6;  // < hot_set: the clique never fits
  spec.requests = 2000;
  spec.seed = 2026;
  return spec;
}

TEST(AdversarialSource, ThrashesThePlanCacheRelativeToMarkov) {
  // The whole point of the workload: hot sets sized just past the cache
  // keep evicting what the caches learned, so the (state, cache-contents)
  // memo keys recur far less often than under a benign chain of the same
  // size. The gap is the thrash, pinned here so a cache-keying change
  // that accidentally collapses contexts gets caught.
  const SimResult adv = run_sim(thrash_spec(SimWorkloadKind::Adversarial));
  const SimResult benign = run_sim(thrash_spec(SimWorkloadKind::Markov));
  const double adv_rate = adv.plan_cache.selections.hit_rate();
  const double benign_rate = benign.plan_cache.selections.hit_rate();
  EXPECT_GT(adv.plan_cache.selections.lookups(), 0u);
  EXPECT_LT(adv_rate + 0.1, benign_rate)
      << "adversarial " << adv_rate << " vs markov " << benign_rate;
}

TEST(AdversarialSource, PlanCacheOnOffBitIdenticalUnderThrash) {
  // Memoization must stay a pure cache even while being thrashed.
  SimSpec on = thrash_spec(SimWorkloadKind::Adversarial);
  SimSpec off = on;
  off.use_plan_cache = false;
  const SimResult a = run_sim(on);
  const SimResult b = run_sim(off);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.demand_fetches, b.metrics.demand_fetches);
  EXPECT_EQ(a.metrics.prefetch_fetches, b.metrics.prefetch_fetches);
  EXPECT_EQ(a.metrics.wasted_prefetches, b.metrics.wasted_prefetches);
  EXPECT_DOUBLE_EQ(a.metrics.network_time, b.metrics.network_time);
  EXPECT_EQ(b.plan_cache.selections.lookups(), 0u);
}

}  // namespace
}  // namespace skp
