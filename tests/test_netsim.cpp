#include "sim/netsim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/access_model.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "test_util.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

EngineConfig skp_engine() {
  EngineConfig cfg;
  cfg.policy = PrefetchPolicy::SKP;
  return cfg;
}

TEST(ServerCatalog, RetrievalTimeFromLatencyAndBandwidth) {
  ServerCatalog cat{{10.0, 20.0}};
  NetConfig net;
  net.bandwidth = 2.0;
  net.latency = 1.5;
  EXPECT_DOUBLE_EQ(cat.retrieval_time(0, net), 6.5);
  EXPECT_DOUBLE_EQ(cat.retrieval_time(1, net), 11.5);
  const auto r = cat.retrieval_times(net);
  EXPECT_DOUBLE_EQ(r[0], 6.5);
  EXPECT_DOUBLE_EQ(r[1], 11.5);
}

TEST(ServerCatalog, OutOfRangeThrows) {
  ServerCatalog cat{{10.0}};
  EXPECT_THROW(cat.retrieval_time(1, NetConfig{}), std::invalid_argument);
}

TEST(ClientSession, RejectsBadConfiguration) {
  ServerCatalog cat{{1.0, 2.0}};
  NetConfig bad_bw;
  bad_bw.bandwidth = 0.0;
  EXPECT_THROW(ClientSession(cat, bad_bw, skp_engine(), 2),
               std::invalid_argument);
  NetConfig bad_lat;
  bad_lat.latency = -1.0;
  EXPECT_THROW(ClientSession(cat, bad_lat, skp_engine(), 2),
               std::invalid_argument);
  EXPECT_THROW(ClientSession(ServerCatalog{{1.0, 0.0}}, NetConfig{},
                             skp_engine(), 2),
               std::invalid_argument);
}

TEST(ClientSession, RequestValidation) {
  ClientSession s(ServerCatalog{{1.0, 2.0}}, NetConfig{}, skp_engine(), 2);
  const std::vector<double> P{0.5, 0.5};
  EXPECT_THROW(s.request(5, 1.0, P), std::invalid_argument);
  EXPECT_THROW(s.request(0, -1.0, P), std::invalid_argument);
  EXPECT_THROW(s.request(0, 1.0, std::vector<double>{1.0}),
               std::invalid_argument);
}

// The central validation: with latency 0 and unit bandwidth (sizes == r),
// a fresh session's first cycle reproduces the analytic access time of
// Sections 3/5 exactly. This is what licenses the closed-form model.
TEST(ClientSession, SingleCycleMatchesAnalyticModel) {
  Rng rng(91);
  for (int trial = 0; trial < 200; ++trial) {
    testing::RandomInstanceOptions opt;
    opt.n = 8;
    const Instance inst = testing::random_instance(rng, opt);

    ServerCatalog cat{inst.r};  // bandwidth 1, latency 0 -> sizes = r
    ClientSession session(cat, NetConfig{}, skp_engine(), inst.n());

    // What the engine would plan from a cold cache.
    SlotCache empty(inst.n(), inst.n());
    FreqTracker freq(inst.n());
    const PrefetchEngine engine(skp_engine());
    const auto plan = engine.plan_with_cache(inst, empty, &freq);

    const auto item =
        static_cast<ItemId>(rng.next_below(inst.n()));
    const double T_des = session.request(item, inst.v, inst.P);
    const double T_model = realized_access_time(inst, plan.fetch, item);
    EXPECT_NEAR(T_des, T_model, 1e-9)
        << "trial " << trial << " item " << item;
  }
}

TEST(ClientSession, HitAfterPrefetchIsFree) {
  // One certain item that fits in the viewing time: T = 0.
  ServerCatalog cat{{5.0, 1.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 2);
  const std::vector<double> P{0.0, 1.0};
  EXPECT_DOUBLE_EQ(s.request(1, 2.0, P), 0.0);
  EXPECT_EQ(s.metrics().hits, 1u);
  EXPECT_EQ(s.metrics().prefetch_fetches, 1u);
  EXPECT_EQ(s.metrics().demand_fetches, 0u);
}

TEST(ClientSession, MissPaysStretchPlusRetrieval) {
  // Prefetch of item 1 (r=4) stretches past v=2 by 2; a request for item 0
  // (r=5) then waits the stretch plus its own transfer: T = 2 + 5 = 7.
  ServerCatalog cat{{5.0, 4.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 2);
  const std::vector<double> P{0.1, 0.9};
  // SKP with v=2: F = {1} (g = 3.6 - 2 = 1.6 > 0).
  EXPECT_DOUBLE_EQ(s.request(0, 2.0, P), 7.0);
  EXPECT_EQ(s.metrics().demand_fetches, 1u);
}

TEST(ClientSession, StretchCarryoverDelaysNextCycle) {
  // Cycle 1 leaves the link busy past the request (hit in K while z is
  // still in flight); cycle 2's transfers must queue behind it. This is
  // the Section-4.4 "stretch intrudes into the next viewing time" effect
  // that the per-cycle analytic model ignores.
  ServerCatalog cat{{3.0, 1.0, 10.0, 2.0, 5.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 5);
  // Cycle 1: F = {1, 2} (st = 9); request 1 hits (T = 0) at t = 2 while
  // item 2 transfers until t = 11.
  const std::vector<double> P1{0.0, 0.6, 0.4, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(s.request(1, 2.0, P1), 0.0);
  // Cycle 2 (t0 = 2): prefetch of 4 queues at t = 11; request of 3 at
  // t = 3 misses and waits behind both: T = 16 + 2 - 3 = 15.
  const std::vector<double> P2{0.0, 0.0, 0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(s.request(3, 1.0, P2), 15.0);
}

TEST(ClientSession, LatencyAddsPerTransfer) {
  ServerCatalog cat{{4.0, 1.0}};
  NetConfig net;
  net.latency = 0.5;
  ClientSession s(cat, net, skp_engine(), 2);
  // No prefetch possible (P mass on the requested item, v = 0).
  const std::vector<double> P{1.0, 0.0};
  EXPECT_DOUBLE_EQ(s.request(0, 0.0, P), 4.5);
}

TEST(ClientSession, CacheHitCostsNothing) {
  ServerCatalog cat{{4.0, 1.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 2);
  const std::vector<double> P{1.0, 0.0};
  const double t1 = s.request(0, 0.0, P);
  EXPECT_GT(t1, 0.0);
  const double t2 = s.request(0, 5.0, P);  // now cached
  EXPECT_DOUBLE_EQ(t2, 0.0);
}

TEST(ClientSession, EvictionRespectsArbitration) {
  // Capacity 1; cached item has high Pr; demand fetch must still evict it
  // (mandatory victim).
  ServerCatalog cat{{4.0, 1.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 1);
  const std::vector<double> P{0.9, 0.1};
  s.request(0, 0.0, P);  // 0 cached
  s.request(1, 0.0, P);  // demand fetch of 1 evicts 0
  EXPECT_TRUE(s.cache().contains(1));
  EXPECT_FALSE(s.cache().contains(0));
}

TEST(ClientSession, LinkUtilizationBounded) {
  Rng rng(93);
  ServerCatalog cat{{3.0, 4.0, 5.0, 2.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 4);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> P(4, 0.25);
    s.request(static_cast<ItemId>(rng.next_below(4)), 3.0, P);
  }
  EXPECT_GE(s.link_utilization(), 0.0);
  EXPECT_LE(s.link_utilization(), 1.0 + 1e-9);
}

TEST(ClientSession, MetricsAccumulate) {
  ServerCatalog cat{{2.0, 3.0}};
  ClientSession s(cat, NetConfig{}, skp_engine(), 2);
  const std::vector<double> P{0.5, 0.5};
  for (int i = 0; i < 5; ++i) {
    s.request(static_cast<ItemId>(i % 2), 1.0, P);
  }
  EXPECT_EQ(s.metrics().requests, 5u);
  EXPECT_GT(s.metrics().network_time, 0.0);
}

TEST(ClientSession, PlanCacheOnOffBitIdentical) {
  // Drive two identical sessions through one Markov walk: the memoized
  // session (context key = source state) must report the same per-cycle
  // access times and final metrics as the plain one, and must actually
  // replay stored plans for recurring (state, cache) pairs.
  MarkovSourceConfig mcfg;
  mcfg.n_states = 12;
  mcfg.out_degree_lo = 3;
  mcfg.out_degree_hi = 6;
  Rng build(31);
  MarkovSource source(mcfg, build);
  Rng walk = build.split(5);
  source.teleport(0);

  ServerCatalog cat;
  cat.sizes.assign(12, 0.0);
  for (std::size_t i = 0; i < 12; ++i) {
    cat.sizes[i] = source.retrieval_time(static_cast<ItemId>(i));
  }
  ClientSession plain(cat, NetConfig{}, skp_engine(), 4);
  ClientSession memoized(cat, NetConfig{}, skp_engine(), 4);
  memoized.enable_plan_cache();

  std::size_t state = source.current_state();
  for (int i = 0; i < 600; ++i) {
    const double v = source.viewing_time(state);
    const std::span<const double> row = source.transition_row(state);
    const auto next = static_cast<ItemId>(source.step(walk));
    const double t_plain = plain.request(next, v, row);
    const double t_memo = memoized.request(next, v, row, std::nullopt,
                                           state);
    ASSERT_DOUBLE_EQ(t_plain, t_memo) << "cycle " << i;
    state = static_cast<std::size_t>(next);
  }
  EXPECT_EQ(plain.metrics().hits, memoized.metrics().hits);
  EXPECT_EQ(plain.metrics().solver_nodes, memoized.metrics().solver_nodes);
  EXPECT_DOUBLE_EQ(plain.metrics().network_time,
                   memoized.metrics().network_time);
  EXPECT_TRUE(memoized.plan_cache_enabled());
  EXPECT_GT(memoized.plan_cache_stats().selections.hits, 0u);
  EXPECT_GT(memoized.plan_cache_stats().plans.hits, 0u);
  EXPECT_FALSE(plain.plan_cache_enabled());
  EXPECT_EQ(plain.plan_cache_stats().plans.lookups(), 0u);
}

// ---- Requests with a support ------------------------------------------

MarkovSource small_chain(std::uint64_t seed, Rng& walk,
                         std::size_t n_states = 40) {
  MarkovSourceConfig mcfg;
  mcfg.n_states = n_states;
  mcfg.out_degree_lo = 3;
  mcfg.out_degree_hi = 8;
  Rng build(seed);
  MarkovSource source(mcfg, build);
  walk = build.split(5);
  source.teleport(0);
  return source;
}

ServerCatalog chain_catalog(const MarkovSource& source) {
  ServerCatalog cat;
  for (std::size_t i = 0; i < source.n_states(); ++i) {
    cat.sizes.push_back(source.retrieval_time(static_cast<ItemId>(i)));
  }
  return cat;
}

void expect_same_books(const ClientSession& a, const ClientSession& b) {
  const SimMetrics& ma = a.metrics();
  const SimMetrics& mb = b.metrics();
  EXPECT_EQ(ma.requests, mb.requests);
  EXPECT_EQ(ma.hits, mb.hits);
  EXPECT_EQ(ma.demand_fetches, mb.demand_fetches);
  EXPECT_EQ(ma.prefetch_fetches, mb.prefetch_fetches);
  EXPECT_EQ(ma.wasted_prefetches, mb.wasted_prefetches);
  EXPECT_EQ(ma.solver_nodes, mb.solver_nodes);
  EXPECT_EQ(ma.network_time, mb.network_time);
  EXPECT_EQ(ma.access_time.mean(), mb.access_time.mean());
  EXPECT_EQ(a.plan_cache_stats().selections.hits,
            b.plan_cache_stats().selections.hits);
  EXPECT_EQ(a.plan_cache_stats().plans.hits,
            b.plan_cache_stats().plans.hits);
}

TEST(ClientSession, OracleSupportMatchesDensePath) {
  // The successor list covers each oracle row; memoized and plain
  // sessions alike decide identically with and without it.
  for (const bool memo : {false, true}) {
    Rng walk(0);
    MarkovSource source = small_chain(41, walk);
    const ServerCatalog cat = chain_catalog(source);
    ClientSession dense(cat, NetConfig{}, skp_engine(), 6);
    ClientSession sparse(cat, NetConfig{}, skp_engine(), 6);
    if (memo) {
      dense.enable_plan_cache();
      sparse.enable_plan_cache();
    }
    std::size_t state = source.current_state();
    for (int i = 0; i < 1500; ++i) {
      const double v = source.viewing_time(state);
      const std::span<const double> row = source.transition_row(state);
      const auto next = static_cast<ItemId>(source.step(walk));
      const std::optional<std::uint64_t> key =
          memo ? std::optional<std::uint64_t>(state) : std::nullopt;
      const double t_dense = dense.request(next, v, row, std::nullopt, key);
      const double t_sparse = sparse.request(next, v, row, std::nullopt, key,
                                             source.successors(state));
      ASSERT_EQ(t_dense, t_sparse) << "cycle " << i << " memo " << memo;
      state = static_cast<std::size_t>(next);
    }
    expect_same_books(dense, sparse);
  }
}

TEST(ClientSession, LearnedSupportMatchesDensePath) {
  // Dense session: predict_into + filter, no support. Sparse session:
  // the filtered primitive with its support. One predictor feeds both.
  // At n = 40 every row keeps an entry >= 1/n > min_prob; the n = 1000
  // LZ78 input also plans on empty supports (a fresh node's backstop
  // row is all slivers), which the planner trusts without a scan.
  struct Input {
    std::unique_ptr<Predictor> pred;
    std::size_t n;
  };
  std::vector<Input> inputs;
  inputs.push_back({std::make_unique<MarkovPredictor>(40), 40});
  inputs.push_back({std::make_unique<Lz78Predictor>(40), 40});
  inputs.push_back({std::make_unique<PpmPredictor>(40, 2), 40});
  inputs.push_back({std::make_unique<Lz78Predictor>(1000), 1000});
  constexpr double kMinProb = 0.01;
  for (const Input& in : inputs) {
    SCOPED_TRACE("n=" + std::to_string(in.n));
    Predictor& pred = *in.pred;
    Rng walk(0);
    MarkovSource source = small_chain(43, walk, in.n);
    const ServerCatalog cat = chain_catalog(source);
    ClientSession dense(cat, NetConfig{}, skp_engine(), 6);
    ClientSession sparse(cat, NetConfig{}, skp_engine(), 6);
    std::vector<double> P_dense, P_sparse;
    std::vector<ItemId> support;
    std::size_t empty_supports = 0;
    std::size_t state = source.current_state();
    for (int i = 0; i < 1500; ++i) {
      const double v = source.viewing_time(state);
      const auto next = static_cast<ItemId>(source.step(walk));
      pred.predict_into(P_dense);
      for (double& p : P_dense) {
        if (p < kMinProb) p = 0.0;
      }
      pred.predict_filtered_into(kMinProb, P_sparse, support);
      if (support.empty()) ++empty_supports;
      const double t_dense = dense.request(next, v, P_dense);
      const double t_sparse = sparse.request(next, v, P_sparse, std::nullopt,
                                             std::nullopt, support);
      ASSERT_EQ(t_dense, t_sparse) << "cycle " << i;
      pred.observe(next);
      state = static_cast<std::size_t>(next);
    }
    expect_same_books(dense, sparse);
    if (in.n == 1000) {
      EXPECT_GT(empty_supports, 100u);
    }
  }
}

TEST(ClientSession, SupportValidationRejectsBadRows) {
  ClientSession s(ServerCatalog{{1.0, 2.0, 3.0, 4.0}}, NetConfig{},
                  skp_engine(), 2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> ok{0.2, 0.3, 0.0, 0.5};
  auto request = [&](const std::vector<double>& P,
                     std::vector<ItemId> support) {
    return s.request(0, 1.0, P, std::nullopt, std::nullopt,
                     std::span<const ItemId>(support));
  };
  EXPECT_THROW(request(ok, {3, 1}), std::invalid_argument);  // unsorted
  EXPECT_THROW(request(ok, {1, 1}), std::invalid_argument);  // repeated
  EXPECT_THROW(request(ok, {1, 4}), std::invalid_argument);  // out of range
  EXPECT_THROW(request(ok, {-1, 1}), std::invalid_argument);
  EXPECT_THROW(request({-0.1, 0.3, 0.0, 0.5}, {0, 1, 3}),
               std::invalid_argument);
  EXPECT_THROW(request({nan, 0.3, 0.0, 0.5}, {0, 1, 3}),
               std::invalid_argument);
  EXPECT_THROW(request({inf, 0.3, 0.0, 0.5}, {0, 1, 3}),
               std::invalid_argument);
  EXPECT_THROW(request({0.6, 0.6, 0.0, 0.0}, {0, 1}),
               std::invalid_argument);  // sums past 1
  EXPECT_EQ(s.metrics().requests, 0u);  // every rejection was up front
  EXPECT_NO_THROW(request(ok, {0, 1, 3}));
  EXPECT_NO_THROW(request(std::vector<double>(4, 0.0), {}));
  EXPECT_EQ(s.metrics().requests, 2u);
}

TEST(ClientSession, RejectsBadRetrievalTimesAtConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, inf, nan}) {
    auto cat = std::make_shared<SharedClientCatalog>();
    cat->server.sizes = {1.0, 2.0, 3.0};
    cat->r = {1.0, bad, 3.0};
    EXPECT_THROW(ClientSession(cat, NetConfig{}, skp_engine(), 2),
                 std::invalid_argument)
        << "r = " << bad;
  }
  // An infinite size grounds an infinite r.
  EXPECT_THROW(ClientSession(ServerCatalog{{1.0, inf}}, NetConfig{},
                             skp_engine(), 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace skp
