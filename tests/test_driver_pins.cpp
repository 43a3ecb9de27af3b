// Fixed-seed pins for the decision paths outside the kEquivalence table
// (test_prefetch_cache_sim.cpp): replay_trace, the netsim_des and
// multi_client drivers through run_sim, and a DS-arbitrated
// ClientSession driven directly. Same contract and row format as that
// table: every counter bit for bit, doubles at 17 significant digits, so
// any drift here is a real behaviour change, not noise.
//
// Refresh after an INTENTIONAL behavior change:
//   ./build/tests/test_driver_pins --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintPinTable*'   (one command line)
// and paste the emitted rows over kPins below.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>

#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "sim/trace_replay.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

// A learnable trace: a Markov walk recorded as (item, viewing time).
Trace pin_trace() {
  MarkovSourceConfig cfg;
  cfg.n_states = 30;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 6;
  Rng build(21);
  MarkovSource src(cfg, build);
  src.teleport(0);
  Trace trace(cfg.n_states,
              std::vector<double>(src.retrieval_times().begin(),
                                  src.retrieval_times().end()));
  Rng walk = build.split(2);
  for (std::size_t i = 0; i < 2400; ++i) {
    const double v = src.viewing_time(src.current_state());
    trace.append(static_cast<ItemId>(src.step(walk)), v);
  }
  return trace;
}

SimMetrics replay(PredictorKind predictor, PrefetchPolicy policy,
                  SubArbitration sub) {
  static const Trace trace = pin_trace();
  TraceReplayConfig cfg;
  cfg.cache_size = 6;
  cfg.policy = policy;
  cfg.sub = sub;
  cfg.predictor = predictor;
  cfg.warmup = 400;
  return replay_trace(trace, cfg);
}

SimSpec des_spec(SimDriverKind driver, SubArbitration sub) {
  SimSpec spec;
  spec.driver = driver;
  spec.workload.n_items = 40;
  spec.workload.out_degree_lo = 4;
  spec.workload.out_degree_hi = 8;
  spec.sub = sub;
  spec.cache_size = 8;
  spec.latency = 0.5;
  spec.requests = driver == SimDriverKind::MultiClientDes ? 400 : 1500;
  spec.seed = 17;
  if (driver == SimDriverKind::MultiClientDes) {
    spec.multi_client.clients = 3;
  }
  return spec;
}

SimMetrics run_des(const SimSpec& spec) { return run_sim(spec).metrics; }

SimMetrics netsim_learned_faulty() {
  SimSpec spec = des_spec(SimDriverKind::NetsimDes, SubArbitration::None);
  spec.predictor = PredictorKind::Markov1;
  spec.predictor_warmup = 50;
  spec.fault.fail_rate = 0.2;
  return run_des(spec);
}

SimMetrics netsim_drift() {
  SimSpec spec = des_spec(SimDriverKind::NetsimDes, SubArbitration::None);
  spec.workload.kind = SimWorkloadKind::MarkovDrift;
  spec.workload.drift_period = 300;
  return run_des(spec);
}

SimMetrics netsim_overload() {
  SimSpec spec = des_spec(SimDriverKind::NetsimDes, SubArbitration::DS);
  spec.overload.enabled = true;
  spec.overload.window = 16;
  spec.overload.degrade_ratio = 1.5;
  spec.overload.recover_ratio = 1.1;
  return run_des(spec);
}

SimMetrics multi_client_mixed_churn() {
  SimSpec spec =
      des_spec(SimDriverKind::MultiClientDes, SubArbitration::None);
  spec.multi_client.churn_period = 300.0;
  spec.multi_client.churn_downtime = 50.0;
  spec.multi_client.overrides.resize(3);
  spec.multi_client.overrides[0].predictor = PredictorKind::Ppm;
  spec.multi_client.overrides[1].predictor = PredictorKind::Lz78;
  spec.predictor_warmup = 20;
  return run_des(spec);
}

SimMetrics multi_client_faulty_overload() {
  SimSpec spec =
      des_spec(SimDriverKind::MultiClientDes, SubArbitration::LFU);
  spec.fault.fail_rate = 0.2;
  spec.overload.enabled = true;
  spec.overload.window = 16;
  spec.overload.degrade_ratio = 1.5;
  spec.overload.recover_ratio = 1.1;
  return run_des(spec);
}

// A DS-arbitrated ClientSession driven directly on its dense request
// path (no support passed), at a quarter of each state's viewing time.
SimMetrics session_ds_dense() {
  MarkovSourceConfig mcfg;
  mcfg.n_states = 30;
  mcfg.out_degree_lo = 3;
  mcfg.out_degree_hi = 6;
  Rng build(31);
  MarkovSource source(mcfg, build);
  Rng walk = build.split(5);
  source.teleport(0);
  ServerCatalog cat;
  for (std::size_t i = 0; i < source.n_states(); ++i) {
    cat.sizes.push_back(source.retrieval_time(static_cast<ItemId>(i)));
  }
  EngineConfig ecfg;
  ecfg.arbitration.sub = SubArbitration::DS;
  ClientSession session(cat, NetConfig{}, ecfg, 6);
  std::size_t state = source.current_state();
  for (int i = 0; i < 1500; ++i) {
    const double v = source.viewing_time(state) / 4.0;
    const std::span<const double> row = source.transition_row(state);
    const auto next = static_cast<ItemId>(source.step(walk));
    session.request(next, v, row);
    state = static_cast<std::size_t>(next);
  }
  return session.metrics();
}

struct PinCase {
  const char* name;
  SimMetrics (*run)();
};

const PinCase kPinCases[] = {
    // clang-format off
    {"replay_markov1_skp", [] { return replay(PredictorKind::Markov1, PrefetchPolicy::SKP, SubArbitration::None); }},
    {"replay_lz78_skp", [] { return replay(PredictorKind::Lz78, PrefetchPolicy::SKP, SubArbitration::None); }},
    {"replay_ppm_skp", [] { return replay(PredictorKind::Ppm, PrefetchPolicy::SKP, SubArbitration::None); }},
    {"replay_depgraph_skp", [] { return replay(PredictorKind::DependencyWindow, PrefetchPolicy::SKP, SubArbitration::None); }},
    {"replay_markov1_none", [] { return replay(PredictorKind::Markov1, PrefetchPolicy::None, SubArbitration::None); }},
    {"replay_markov1_kp", [] { return replay(PredictorKind::Markov1, PrefetchPolicy::KP, SubArbitration::None); }},
    {"replay_markov1_skp_ds", [] { return replay(PredictorKind::Markov1, PrefetchPolicy::SKP, SubArbitration::DS); }},
    {"netsim_oracle_none", [] { return run_des(des_spec(SimDriverKind::NetsimDes, SubArbitration::None)); }},
    {"netsim_oracle_lfu", [] { return run_des(des_spec(SimDriverKind::NetsimDes, SubArbitration::LFU)); }},
    {"netsim_oracle_ds", [] { return run_des(des_spec(SimDriverKind::NetsimDes, SubArbitration::DS)); }},
    {"netsim_markov1_faulty", &netsim_learned_faulty},
    {"netsim_oracle_drift", &netsim_drift},
    {"netsim_oracle_ds_overload", &netsim_overload},
    {"multi_oracle_none", [] { return run_des(des_spec(SimDriverKind::MultiClientDes, SubArbitration::None)); }},
    {"multi_oracle_lfu", [] { return run_des(des_spec(SimDriverKind::MultiClientDes, SubArbitration::LFU)); }},
    {"multi_oracle_ds", [] { return run_des(des_spec(SimDriverKind::MultiClientDes, SubArbitration::DS)); }},
    {"multi_mixed_churn", &multi_client_mixed_churn},
    {"multi_lfu_faulty_overload", &multi_client_faulty_overload},
    {"session_ds_dense", &session_ds_dense},
    // clang-format on
};

struct PinRow {
  const char* name;
  std::uint64_t hits, demand, prefetch, wasted, nodes;
  double mean_T, net_time;
};

const PinRow kPins[] = {
    // clang-format off
    {"replay_markov1_skp", 1415, 466, 3955, 2521, 6429, 4.6530000000000005, 72359},
    {"replay_lz78_skp", 1126, 839, 2669, 1957, 39146, 6.299499999999985, 54539},
    {"replay_ppm_skp", 1444, 460, 4031, 2650, 9984, 4.3130000000000095, 73723},
    {"replay_depgraph_skp", 1494, 476, 4718, 3273, 17668, 4.1674999999999924, 86087},
    {"replay_markov1_none", 629, 1371, 0, 0, 0, 10.191999999999984, 20384},
    {"replay_markov1_kp", 1432, 568, 3831, 2501, 12488, 4.9724999999999966, 71418},
    {"replay_markov1_skp_ds", 1493, 418, 3685, 2568, 5610, 3.9259999999999988, 60544},
    {"netsim_oracle_none", 1135, 216, 4831, 3596, 7714, 3.320666666666662, 74177.5},
    {"netsim_oracle_lfu", 1211, 166, 4779, 3562, 7348, 2.3460000000000005, 71861.5},
    {"netsim_oracle_ds", 1196, 166, 4945, 3704, 7460, 2.3676666666666644, 70130.5},
    {"netsim_markov1_faulty", 908, 520, 3735, 2071, 82232, 5.4173333333333433, 61993.5},
    {"netsim_oracle_drift", 1176, 229, 4516, 3361, 7209, 3.1366666666666676, 64252.5},
    {"netsim_oracle_ds_overload", 468, 1025, 373, 272, 561, 8.1533333333333342, 17082},
    {"multi_oracle_none", 269, 221, 3730, 2802, 6025, 82.754583333333358, 54977.5},
    {"multi_oracle_lfu", 313, 204, 3755, 2886, 5909, 82.327916666666653, 54852.5},
    {"multi_oracle_ds", 285, 198, 3931, 3015, 5885, 78.881249999999994, 53568.5},
    {"multi_mixed_churn", 248, 716, 3843, 3362, 317247, 56.970833333333296, 50796.5},
    {"multi_lfu_faulty_overload", 416, 673, 731, 431, 1050, 24.582916666666666, 20029},
    {"session_ds_dense", 667, 587, 1689, 1087, 3848, 8.063499999999987, 27662},
    // clang-format on
};

TEST(DriverPins, MetricsBitIdenticalAtFixedSeed) {
  ASSERT_EQ(std::size(kPins), std::size(kPinCases))
      << "pin table out of date — rerun PrintPinTable";
  for (std::size_t i = 0; i < std::size(kPinCases); ++i) {
    const PinCase& c = kPinCases[i];
    const PinRow& g = kPins[i];
    ASSERT_STREQ(c.name, g.name);
    const SimMetrics m = c.run();
    EXPECT_EQ(m.hits, g.hits) << c.name;
    EXPECT_EQ(m.demand_fetches, g.demand) << c.name;
    EXPECT_EQ(m.prefetch_fetches, g.prefetch) << c.name;
    EXPECT_EQ(m.wasted_prefetches, g.wasted) << c.name;
    EXPECT_EQ(m.solver_nodes, g.nodes) << c.name;
    EXPECT_DOUBLE_EQ(m.mean_access_time(), g.mean_T) << c.name;
    EXPECT_DOUBLE_EQ(m.network_time, g.net_time) << c.name;
  }
}

// Manual refresh: prints the kPins initializer rows (17 significant
// digits, round-trip exact). Disabled so ctest never depends on it.
TEST(DriverPins, DISABLED_PrintPinTable) {
  for (const PinCase& c : kPinCases) {
    const SimMetrics m = c.run();
    std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu, %.17g, %.17g},\n",
                c.name, static_cast<unsigned long long>(m.hits),
                static_cast<unsigned long long>(m.demand_fetches),
                static_cast<unsigned long long>(m.prefetch_fetches),
                static_cast<unsigned long long>(m.wasted_prefetches),
                static_cast<unsigned long long>(m.solver_nodes),
                m.mean_access_time(), m.network_time);
  }
}

}  // namespace
}  // namespace skp
