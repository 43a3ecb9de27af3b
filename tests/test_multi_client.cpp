#include "sim/multi_client.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace skp {
namespace {

SimSpec quick(std::size_t clients, double threshold = 0.0) {
  SimSpec spec;
  spec.driver = SimDriverKind::MultiClientDes;
  spec.workload.n_items = 25;
  spec.workload.out_degree_lo = 4;
  spec.workload.out_degree_hi = 7;
  spec.cache_size = 6;
  spec.policy = PrefetchPolicy::SKP;
  spec.min_profit_threshold = threshold;
  spec.requests = 400;  // per client
  spec.seed = 13;
  spec.multi_client.clients = clients;
  return spec;
}

TEST(MultiClient, Validation) {
  auto spec = quick(1);
  spec.multi_client.clients = 0;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
  spec = quick(1);
  spec.multi_client.link_speedup = 0.0;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
  spec = quick(1);
  spec.cache_size = 0;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
}

TEST(MultiClient, EveryClientServesItsQuota) {
  const SimResult res = run_sim(quick(3));
  ASSERT_EQ(res.per_client.size(), 3u);
  for (const auto& m : res.per_client) {
    EXPECT_EQ(m.requests, 400u);
  }
  EXPECT_EQ(res.metrics.requests, 1200u);
}

TEST(MultiClient, DeterministicInSeed) {
  const SimResult a = run_sim(quick(2));
  const SimResult b = run_sim(quick(2));
  EXPECT_DOUBLE_EQ(a.metrics.mean_access_time(),
                   b.metrics.mean_access_time());
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
}

TEST(MultiClient, LinkUtilizationBounded) {
  const SimResult res = run_sim(quick(4));
  EXPECT_GT(res.link_utilization, 0.0);
  EXPECT_LE(res.link_utilization, 1.0 + 1e-9);
}

TEST(MultiClient, ContentionHurtsAtFixedLinkSpeed) {
  // More clients on the SAME link (no speedup) must not make the average
  // access time better.
  const double t1 = run_sim(quick(1)).metrics.mean_access_time();
  const double t4 = run_sim(quick(4)).metrics.mean_access_time();
  EXPECT_GE(t4, t1 * 0.9);
}

TEST(MultiClient, ThrottlingHelpsUnderHeavyContention) {
  // At 6 clients on an unscaled link, disabling speculation must not be
  // worse than unbounded speculation by any large margin — and typically
  // strictly beats it.
  const SimResult res_eager = run_sim(quick(6, 0.0));
  const SimResult res_off = run_sim(quick(6, 1e9));
  EXPECT_EQ(res_off.metrics.prefetch_fetches, 0u);
  EXPECT_LE(res_off.metrics.mean_access_time(),
            res_eager.metrics.mean_access_time() * 1.5);
}

TEST(MultiClient, SingleClientMatchesAnalyticOrdering) {
  // With one client the system degenerates to the Fig.-7 setting: SKP
  // must beat no-prefetch.
  auto none_spec = quick(1);
  none_spec.policy = PrefetchPolicy::None;
  EXPECT_LT(run_sim(quick(1)).metrics.mean_access_time(),
            run_sim(none_spec).metrics.mean_access_time());
}

TEST(MultiClient, FasterLinkNeverHurts) {
  auto fast = quick(4);
  fast.multi_client.link_speedup = 4.0;
  EXPECT_LE(run_sim(fast).metrics.mean_access_time(),
            run_sim(quick(4)).metrics.mean_access_time() + 1e-9);
}

TEST(MultiClient, SeedOverrideNeverShiftsSiblingClients) {
  // Reseeding the FIRST client must leave every sibling's trajectory
  // untouched: each client draws from its own private streams.
  auto spec = quick(3);
  const SimResult base = run_sim(spec);
  spec.multi_client.overrides.resize(3);
  spec.multi_client.overrides[0].seed = 42;
  const SimResult reseeded = run_sim(spec);
  ASSERT_EQ(reseeded.per_client.size(), 3u);
  EXPECT_NE(base.per_client[0].network_time,
            reseeded.per_client[0].network_time);
  EXPECT_EQ(base.per_client[1].solver_nodes,
            reseeded.per_client[1].solver_nodes);
  EXPECT_EQ(base.per_client[1].network_time,
            reseeded.per_client[1].network_time);
  EXPECT_EQ(base.per_client[2].solver_nodes,
            reseeded.per_client[2].solver_nodes);
  EXPECT_EQ(base.per_client[2].network_time,
            reseeded.per_client[2].network_time);
}

TEST(MultiClient, PlanMemoStatsSumAcrossAsymmetricClients) {
  // Two clients under deliberately skewed loads on one catalog: a sparse
  // chain (out-degree 1-2) whose (state, cache) pairs recur constantly
  // versus a dense one (out-degree 20-30) that mostly misses. A learned
  // client builds no memo tier, so swapping either client for a learned
  // one leaves exactly the other's memoization counters — the same
  // counters it contributes to the joint run, because cache evolution
  // depends on the client's own request sequence, never on link timing.
  // The merged stats must then be the counter SUMS — and the merged hit
  // rate the recomputation from summed hits/misses, which under skew is
  // far from the mean of the per-client rates.
  auto fleet = [](bool hot_oracle, bool cold_oracle) {
    SimSpec spec;
    spec.driver = SimDriverKind::MultiClientDes;
    spec.workload.n_items = 60;
    spec.cache_size = 5;
    spec.requests = 800;
    spec.seed = 4;
    spec.multi_client.clients = 2;
    spec.multi_client.overrides.resize(2);
    MultiClientOverride& hot = spec.multi_client.overrides[0];
    hot.workload = spec.workload;
    hot.workload->out_degree_lo = 1;
    hot.workload->out_degree_hi = 2;
    hot.seed = 101;
    if (!hot_oracle) hot.predictor = PredictorKind::Markov1;
    MultiClientOverride& cold = spec.multi_client.overrides[1];
    cold.workload = spec.workload;
    cold.workload->out_degree_lo = 20;
    cold.workload->out_degree_hi = 30;
    cold.seed = 202;
    if (!cold_oracle) cold.predictor = PredictorKind::Markov1;
    return run_sim(spec);
  };
  const SimResult a = fleet(true, false);  // the hot client's counters
  const SimResult b = fleet(false, true);  // the cold client's counters
  const SimResult joint = fleet(true, true);

  for (const auto tier : {&PlanMemoStats::plans,
                          &PlanMemoStats::selections}) {
    const PlanCacheStats& sa = a.plan_cache.*tier;
    const PlanCacheStats& sb = b.plan_cache.*tier;
    const PlanCacheStats& sj = joint.plan_cache.*tier;
    EXPECT_EQ(sj.hits, sa.hits + sb.hits);
    EXPECT_EQ(sj.misses, sa.misses + sb.misses);
    EXPECT_EQ(sj.inserts, sa.inserts + sb.inserts);
    EXPECT_EQ(sj.evictions, sa.evictions + sb.evictions);
    // The merged rate is recomputed from the summed counters...
    EXPECT_DOUBLE_EQ(sj.hit_rate(),
                     static_cast<double>(sa.hits + sb.hits) /
                         static_cast<double>(sa.lookups() + sb.lookups()));
  }
  // ...and the loads are genuinely skewed: averaging the per-client
  // selection-tier rates would misreport the merged rate.
  const double mean_of_rates = (a.plan_cache.selections.hit_rate() +
                                b.plan_cache.selections.hit_rate()) /
                               2.0;
  EXPECT_GT(std::abs(joint.plan_cache.selections.hit_rate() -
                     mean_of_rates),
            0.02);
}

TEST(MultiClient, PlanCacheOnOffBitIdentical) {
  auto on = quick(3);
  on.requests = 800;
  auto off = on;
  off.use_plan_cache = false;
  const SimResult a = run_sim(on);
  const SimResult b = run_sim(off);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.demand_fetches, b.metrics.demand_fetches);
  EXPECT_EQ(a.metrics.prefetch_fetches, b.metrics.prefetch_fetches);
  EXPECT_EQ(a.metrics.solver_nodes, b.metrics.solver_nodes);
  EXPECT_DOUBLE_EQ(a.metrics.mean_access_time(),
                   b.metrics.mean_access_time());
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
  // Oracle rows + default sub-arbitration: recurring states must replay
  // stored solver selections (and some full plans).
  EXPECT_GT(a.plan_cache.selections.hits, 0u);
  EXPECT_GT(a.plan_cache.plans.hits, 0u);
  EXPECT_EQ(b.plan_cache.plans.lookups(), 0u);
  EXPECT_EQ(b.plan_cache.selections.lookups(), 0u);
}

// ---- Hostile worlds -----------------------------------------------------

TEST(MultiClientHostile, ChurnStillServesEveryQuota) {
  auto spec = quick(3);
  spec.multi_client.churn_period = 300.0;
  spec.multi_client.churn_downtime = 50.0;
  const SimResult res = run_sim(spec);
  EXPECT_GT(res.churn_events, 0u);
  ASSERT_EQ(res.per_client.size(), 3u);
  for (const auto& m : res.per_client) EXPECT_EQ(m.requests, 400u);
  EXPECT_EQ(res.metrics.requests, 1200u);
  // Walking away from a warm cache strands prefetched-but-unviewed
  // residents: the flush must charge them as wasted.
  const SimResult calm = run_sim(quick(3));
  EXPECT_GT(res.metrics.wasted_prefetches, calm.metrics.wasted_prefetches);
}

TEST(MultiClientHostile, ChurningOneClientNeverShiftsSiblingDecisions) {
  // Churn client 0 via an override: the siblings' private streams and
  // chain state survive, so every timing-INDEPENDENT counter of clients
  // 1 and 2 must be bit-identical to the calm run. (hits and access
  // times legitimately move — the churning client changes when the
  // shared link is busy.)
  auto spec = quick(3);
  const SimResult calm = run_sim(spec);
  spec.multi_client.overrides.resize(3);
  spec.multi_client.overrides[0].churn_period = 250.0;
  spec.multi_client.overrides[0].churn_downtime = 40.0;
  const SimResult churned = run_sim(spec);
  EXPECT_GT(churned.churn_events, 0u);
  ASSERT_EQ(churned.per_client.size(), 3u);
  for (std::size_t c = 1; c < 3; ++c) {
    const auto& a = calm.per_client[c];
    const auto& b = churned.per_client[c];
    EXPECT_EQ(a.requests, b.requests) << c;
    EXPECT_EQ(a.demand_fetches, b.demand_fetches) << c;
    EXPECT_EQ(a.prefetch_fetches, b.prefetch_fetches) << c;
    EXPECT_EQ(a.wasted_prefetches, b.wasted_prefetches) << c;
    EXPECT_EQ(a.solver_nodes, b.solver_nodes) << c;
    EXPECT_DOUBLE_EQ(a.network_time, b.network_time) << c;
  }
  // The churned client itself must cold-restart visibly.
  EXPECT_NE(calm.per_client[0].demand_fetches,
            churned.per_client[0].demand_fetches);
}

TEST(MultiClientHostile, ChurnPlanCacheOnOffBitIdentical) {
  // Rejoin invalidates the plan memo by generation bump; the memo must
  // stay a pure cache through every flush.
  auto on = quick(3);
  on.multi_client.churn_period = 300.0;
  on.multi_client.churn_downtime = 50.0;
  auto off = on;
  off.use_plan_cache = false;
  const SimResult a = run_sim(on);
  const SimResult b = run_sim(off);
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.demand_fetches, b.metrics.demand_fetches);
  EXPECT_EQ(a.metrics.prefetch_fetches, b.metrics.prefetch_fetches);
  EXPECT_EQ(a.metrics.wasted_prefetches, b.metrics.wasted_prefetches);
  EXPECT_EQ(a.metrics.solver_nodes, b.metrics.solver_nodes);
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(b.plan_cache.plans.lookups(), 0u);
}

TEST(MultiClientHostile, FlashCrowdDeterministicAndDistinct) {
  auto spec = quick(3);
  spec.multi_client.phase_align = 1.0;
  const SimResult a = run_sim(spec);
  const SimResult b = run_sim(spec);
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_DOUBLE_EQ(a.metrics.mean_access_time(),
                   b.metrics.mean_access_time());
  // Herd viewing times genuinely change the trajectory vs. independent
  // phases...
  const SimResult calm = run_sim(quick(3));
  EXPECT_NE(a.metrics.mean_access_time(), calm.metrics.mean_access_time());
  // ...and the blended v varies with the cycle index, which breaks the
  // oracle memo's context-key promise — the memo must sit out entirely.
  EXPECT_EQ(a.plan_cache.plans.lookups(), 0u);
  EXPECT_EQ(a.plan_cache.selections.lookups(), 0u);
}

TEST(MultiClientHostile, LinkScheduleRepricesTimingNotDecisions) {
  // Phase-at-start pricing changes WHEN transfers complete, never what
  // the planner fetches: planning and the network_time metrics keep
  // seeing the static base r_i (the stale-estimate regime), so every
  // decision-path counter is bit-identical to the static-link run while
  // the realized timing moves.
  auto stormy_spec = quick(3);
  stormy_spec.link_schedule = {{200.0, 1.0, 0.0}, {60.0, 0.25, 2.0}};
  const SimResult calm = run_sim(quick(3));
  const SimResult stormy = run_sim(stormy_spec);
  EXPECT_EQ(calm.metrics.demand_fetches, stormy.metrics.demand_fetches);
  EXPECT_EQ(calm.metrics.prefetch_fetches, stormy.metrics.prefetch_fetches);
  EXPECT_EQ(calm.metrics.solver_nodes, stormy.metrics.solver_nodes);
  EXPECT_DOUBLE_EQ(calm.metrics.network_time, stormy.metrics.network_time);
  EXPECT_NE(calm.link_utilization, stormy.link_utilization);
  // A degraded window can only serialize MORE wall-clock per unit of
  // base network time, never less (bandwidth 0.25 < 1, latency 2 > 0),
  // so requests wait longer.
  EXPECT_GT(stormy.metrics.mean_access_time(),
            calm.metrics.mean_access_time());
  const SimResult again = run_sim(stormy_spec);
  EXPECT_DOUBLE_EQ(stormy.link_utilization, again.link_utilization);
}

TEST(MultiClientHostile, HostileFieldValidation) {
  auto spec = quick(2);
  spec.multi_client.phase_align = 1.5;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
  spec = quick(2);
  spec.multi_client.phase_align = -0.1;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
  spec = quick(2);
  spec.multi_client.churn_period = -1.0;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
  spec = quick(2);
  spec.link_schedule = {{0.0, 1.0, 0.0}};  // zero-duration phase
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
  spec = quick(2);
  spec.link_schedule = {{100.0, -1.0, 0.0}};  // negative bandwidth
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
}

}  // namespace
}  // namespace skp
