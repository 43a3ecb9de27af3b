#include "sim/trace_replay.hpp"

#include <gtest/gtest.h>

#include "workload/markov_source.hpp"
#include "workload/request_stream.hpp"

namespace skp {
namespace {

// Records a trace from a Markov source so replay sees learnable structure.
Trace markov_trace(std::size_t n_states, std::size_t length,
                   std::uint64_t seed) {
  Rng build(seed);
  MarkovSourceConfig cfg;
  cfg.n_states = n_states;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 6;
  MarkovSource src(cfg, build);
  src.teleport(0);
  Trace trace(n_states,
              std::vector<double>(src.retrieval_times().begin(),
                                  src.retrieval_times().end()));
  Rng walk = build.split(2);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t s = src.current_state();
    const double v = src.viewing_time(s);
    const auto next = static_cast<ItemId>(src.step(walk));
    trace.append(next, v);
  }
  return trace;
}

// The replay the workbench runs: SKP under DS sub-arbitration on a
// Markov1 predictor, cache 10.
SimSpec replay_spec() {
  SimSpec spec;
  spec.sub = SubArbitration::DS;
  spec.predictor = PredictorKind::Markov1;
  return spec;
}

TEST(TraceReplay, RejectsEmptyTraceAndOracle) {
  Trace empty(4, {1.0, 2.0, 3.0, 4.0});
  EXPECT_THROW(replay_trace(empty, replay_spec()), std::invalid_argument);
  const Trace t = markov_trace(10, 50, 1);
  SimSpec cfg = replay_spec();
  cfg.predictor = PredictorKind::Oracle;
  EXPECT_THROW(replay_trace(t, cfg), std::invalid_argument);
}

TEST(TraceReplay, CountsEveryRequest) {
  const Trace t = markov_trace(15, 500, 2);
  const SimMetrics m = replay_trace(t, replay_spec()).metrics;
  EXPECT_EQ(m.requests, 500u);
}

TEST(TraceReplay, WarmupExcluded) {
  const Trace t = markov_trace(15, 500, 3);
  SimSpec cfg = replay_spec();
  cfg.warmup = 100;
  EXPECT_EQ(replay_trace(t, cfg).metrics.requests, 400u);
}

TEST(TraceReplay, DeterministicReplay) {
  const Trace t = markov_trace(20, 800, 4);
  const SimMetrics a = replay_trace(t, replay_spec()).metrics;
  const SimMetrics b = replay_trace(t, replay_spec()).metrics;
  EXPECT_DOUBLE_EQ(a.mean_access_time(), b.mean_access_time());
  EXPECT_EQ(a.hits, b.hits);
}

TEST(TraceReplay, PrefetchingBeatsDemandOnLearnableTrace) {
  const Trace t = markov_trace(25, 4000, 5);
  SimSpec skp_cfg = replay_spec();
  skp_cfg.warmup = 500;  // let the predictor learn
  SimSpec none_cfg = skp_cfg;
  none_cfg.policy = PrefetchPolicy::None;
  const double t_skp = replay_trace(t, skp_cfg).metrics.mean_access_time();
  const double t_none = replay_trace(t, none_cfg).metrics.mean_access_time();
  EXPECT_LT(t_skp, t_none);
}

TEST(TraceReplay, RoundTripThroughDiskGivesSameResult) {
  const Trace t = markov_trace(12, 600, 6);
  const std::string path = ::testing::TempDir() + "/replay_trace.txt";
  t.save_file(path);
  const Trace loaded = Trace::load_file(path);
  const SimMetrics a = replay_trace(t, replay_spec()).metrics;
  const SimMetrics b = replay_trace(loaded, replay_spec()).metrics;
  EXPECT_DOUBLE_EQ(a.mean_access_time(), b.mean_access_time());
}

TEST(TraceReplay, PredictorKindsAllRun) {
  const Trace t = markov_trace(15, 600, 7);
  for (const auto kind :
       {PredictorKind::Markov1, PredictorKind::Ppm,
        PredictorKind::DependencyWindow}) {
    SimSpec cfg = replay_spec();
    cfg.predictor = kind;
    const SimMetrics m = replay_trace(t, cfg).metrics;
    EXPECT_EQ(m.requests, 600u) << to_string(kind);
  }
}

TEST(TraceReplay, PerfectPrefetchesTheNextRecord) {
  // The Perfect oracle sees each record's item before it is served, so
  // on a learnable trace it prefetches and beats no prefetching.
  const Trace t = markov_trace(25, 3000, 3);
  SimSpec perfect = replay_spec();
  perfect.policy = PrefetchPolicy::Perfect;
  perfect.warmup = 300;
  SimSpec none = perfect;
  none.policy = PrefetchPolicy::None;
  const SimMetrics p = replay_trace(t, perfect).metrics;
  const SimMetrics z = replay_trace(t, none).metrics;
  EXPECT_GT(p.prefetch_fetches, 0u);
  EXPECT_LT(p.mean_access_time(), z.mean_access_time());
}

TEST(TraceReplay, BiggerCacheHelps) {
  const Trace t = markov_trace(25, 3000, 8);
  SimSpec small = replay_spec();
  small.cache_size = 3;
  SimSpec large = replay_spec();
  large.cache_size = 20;
  EXPECT_LT(replay_trace(t, large).metrics.mean_access_time(),
            replay_trace(t, small).metrics.mean_access_time());
}

}  // namespace
}  // namespace skp
