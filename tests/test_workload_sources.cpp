// Tests for the two new first-class workload generators: the Zipf
// catalog (workload/zipf_source.hpp) and phase-shifting Markov drift
// (MarkovSource::redraw_transitions + the markov_drift workload).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/prefetch_cache.hpp"
#include "util/rng.hpp"
#include "workload/markov_source.hpp"
#include "workload/zipf_source.hpp"

namespace skp {
namespace {

ZipfSourceConfig unshuffled_zipf(std::size_t n, double s) {
  ZipfSourceConfig cfg;
  cfg.n_items = n;
  cfg.exponent = s;
  cfg.shuffle = false;  // item id == popularity rank
  return cfg;
}

// ---- ZipfSource ---------------------------------------------------------

TEST(ZipfSource, TailExponentMatchesConfiguredS) {
  // Unshuffled: P(item k) proportional to (k+1)^-s, so the log-log slope
  // between any two ranks recovers s exactly (up to normalization, which
  // cancels in the ratio).
  for (const double s : {0.7, 1.1, 2.0}) {
    Rng rng(11);
    MarkovSource src(make_zipf_chain(unshuffled_zipf(64, s), rng));
    const auto row = src.view_at(0).P;
    for (const std::size_t k : {1UL, 7UL, 63UL}) {
      const double slope = std::log(row[0] / row[k]) /
                           std::log(static_cast<double>(k + 1));
      EXPECT_NEAR(slope, s, 1e-9) << "s=" << s << " k=" << k;
    }
  }
}

TEST(ZipfSource, RowIsANormalizedDistributionSharedByAllStates) {
  Rng rng(3);
  MarkovSource src(make_zipf_chain(unshuffled_zipf(32, 1.1), rng));
  const std::vector<double> row0 = src.instance_at(0).P;
  double sum = 0.0;
  for (const double p : row0) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Rank-1 chain: every state carries the identical row and the full
  // catalog as successor list.
  for (const std::size_t state : {5UL, 31UL}) {
    const auto row = src.view_at(state).P;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i], row0[i]);
    }
    EXPECT_EQ(src.successors(state).size(), 32u);
  }
  // Unshuffled rows are monotone in rank.
  for (std::size_t i = 1; i < row0.size(); ++i) {
    EXPECT_LT(row0[i], row0[i - 1]);
  }
}

TEST(ZipfSource, FixedSeedReproducible) {
  ZipfSourceConfig cfg;
  cfg.n_items = 40;
  Rng a(99), b(99);
  MarkovSource s1(make_zipf_chain(cfg, a));
  MarkovSource s2(make_zipf_chain(cfg, b));
  for (std::size_t i = 0; i < cfg.n_items; ++i) {
    EXPECT_EQ(s1.viewing_time(i), s2.viewing_time(i));
    EXPECT_EQ(s1.retrieval_time(static_cast<ItemId>(i)),
              s2.retrieval_time(static_cast<ItemId>(i)));
  }
  const auto r1 = s1.view_at(0).P;
  const auto r2 = s2.view_at(0).P;
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r2[i]);
  // Identical walks from identical streams.
  MarkovSource w1 = s1, w2 = s2;
  Rng walk1(5), walk2(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(w1.step(walk1), w2.step(walk2));
  }
}

TEST(ZipfSource, RejectsBadConfiguration) {
  Rng rng(1);
  ZipfSourceConfig one;
  one.n_items = 1;
  EXPECT_THROW(make_zipf_chain(one, rng), std::invalid_argument);
  ZipfSourceConfig bad_s;
  bad_s.exponent = 0.0;
  EXPECT_THROW(make_zipf_chain(bad_s, rng), std::invalid_argument);
}

// ---- Explicit-chain constructor -----------------------------------------

TEST(MarkovSourceExplicit, ValidatesStructure) {
  const std::vector<double> v{10.0, 20.0};
  const std::vector<double> r{1.0, 2.0};
  // Row of state 0 -> state 1, row of state 1 -> state 0. The chain
  // validates; the source walks it.
  EXPECT_NO_THROW(
      MarkovSource(MarkovChain(v, r, {{1}, {0}}, {{1.0}, {1.0}})));
  // Probabilities must sum to 1.
  EXPECT_THROW(MarkovChain(v, r, {{1}, {0}}, {{0.5}, {1.0}}),
               std::invalid_argument);
  // Successors must be ascending and in range.
  EXPECT_THROW(MarkovChain(v, r, {{1, 0}, {0}}, {{0.5, 0.5}, {1.0}}),
               std::invalid_argument);
  EXPECT_THROW(MarkovChain(v, r, {{2}, {0}}, {{1.0}, {1.0}}),
               std::invalid_argument);
  // No empty rows.
  EXPECT_THROW(MarkovChain(v, r, {{}, {0}}, {{}, {1.0}}),
               std::invalid_argument);
}

// ---- Phase-shifting drift -----------------------------------------------

TEST(MarkovDrift, RedrawChangesTransitionsKeepsCatalogs) {
  MarkovSourceConfig cfg;
  cfg.n_states = 30;
  Rng build(42);
  MarkovSource src(cfg, build);
  const std::vector<double> v_before = [&] {
    std::vector<double> v(cfg.n_states);
    for (std::size_t i = 0; i < cfg.n_states; ++i) {
      v[i] = src.viewing_time(i);
    }
    return v;
  }();
  const std::vector<double> r_before(src.retrieval_times().begin(),
                                     src.retrieval_times().end());
  std::vector<std::vector<double>> rows_before;
  for (std::size_t s = 0; s < cfg.n_states; ++s) {
    rows_before.emplace_back(src.view_at(s).P.begin(),
                             src.view_at(s).P.end());
  }

  Rng drift(7);
  src.redraw_transitions(cfg, drift);

  bool any_row_changed = false;
  for (std::size_t s = 0; s < cfg.n_states; ++s) {
    EXPECT_EQ(src.viewing_time(s), v_before[s]);
    EXPECT_EQ(src.retrieval_times()[s], r_before[s]);
    const auto row = src.view_at(s).P;
    double sum = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      sum += row[i];
      if (row[i] != rows_before[s][i]) any_row_changed = true;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_TRUE(any_row_changed);
}

TEST(MarkovDrift, ChangepointsAreDeterministic) {
  // Two sources drifted with identical streams stay identical; a third
  // drifted with a different stream diverges.
  MarkovSourceConfig cfg;
  cfg.n_states = 20;
  Rng b1(5), b2(5), b3(5);
  MarkovSource s1(cfg, b1), s2(cfg, b2), s3(cfg, b3);
  Rng d1(9), d2(9), d3(10);
  s1.redraw_transitions(cfg, d1);
  s2.redraw_transitions(cfg, d2);
  s3.redraw_transitions(cfg, d3);
  bool diverged = false;
  for (std::size_t s = 0; s < cfg.n_states; ++s) {
    const auto r1 = s1.view_at(s).P;
    const auto r2 = s2.view_at(s).P;
    const auto r3 = s3.view_at(s).P;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i], r2[i]);
      if (r1[i] != r3[i]) diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(MarkovDrift, SimDeterministicAndDistinctFromStaticChain) {
  SimSpec cfg;  // prefetch_cache driver
  cfg.workload.kind = SimWorkloadKind::MarkovDrift;
  cfg.cache_size = 12;
  cfg.requests = 3'000;
  cfg.seed = 13;
  cfg.workload.drift_period = 500;
  const SimResult a = run_prefetch_cache(cfg);
  const SimResult b = run_prefetch_cache(cfg);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.network_time, b.metrics.network_time);
  EXPECT_EQ(a.metrics.solver_nodes, b.metrics.solver_nodes);

  cfg.workload.kind = SimWorkloadKind::Markov;  // a static chain
  const SimResult still = run_prefetch_cache(cfg);
  EXPECT_NE(a.metrics.network_time, still.metrics.network_time)
      << "drift changed nothing";
}

TEST(MarkovDrift, PlanCacheOnOffBitIdentical) {
  // The changepoint invalidation must keep memoized runs exactly equal to
  // unmemoized ones — a stale plan surviving a redraw would show up here.
  for (const SubArbitration sub :
       {SubArbitration::None, SubArbitration::DS}) {
    SimSpec cfg;  // prefetch_cache driver
    cfg.workload.kind = SimWorkloadKind::MarkovDrift;
    cfg.cache_size = 10;
    cfg.sub = sub;
    cfg.requests = 2'400;
    cfg.seed = 77;
    cfg.workload.drift_period = 400;
    cfg.use_plan_cache = true;
    const SimResult on = run_prefetch_cache(cfg);
    cfg.use_plan_cache = false;
    const SimResult off = run_prefetch_cache(cfg);
    EXPECT_EQ(on.metrics.hits, off.metrics.hits);
    EXPECT_EQ(on.metrics.demand_fetches, off.metrics.demand_fetches);
    EXPECT_EQ(on.metrics.prefetch_fetches, off.metrics.prefetch_fetches);
    EXPECT_EQ(on.metrics.wasted_prefetches, off.metrics.wasted_prefetches);
    EXPECT_EQ(on.metrics.network_time, off.metrics.network_time);
    EXPECT_EQ(on.metrics.solver_nodes, off.metrics.solver_nodes);
    EXPECT_EQ(on.metrics.mean_access_time(), off.metrics.mean_access_time());
  }
}

TEST(ZipfWorkload, PrefetchCacheSimFavorsHotItems) {
  // A strongly skewed catalog with a cache a fraction of the catalog size
  // should hit far more often than the same sim under a flat-ish chain:
  // the head of the Zipf distribution fits in the cache.
  SimSpec cfg;  // prefetch_cache driver
  cfg.workload.kind = SimWorkloadKind::Zipf;
  cfg.workload.n_items = 100;
  cfg.workload.zipf_exponent = 1.4;
  cfg.cache_size = 15;
  cfg.requests = 4'000;
  cfg.seed = 21;
  const SimResult res = run_prefetch_cache(cfg);
  EXPECT_GT(res.metrics.hit_rate(), 0.5);
}

}  // namespace
}  // namespace skp
