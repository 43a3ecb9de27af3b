// Fixed-seed pins for the decision paths outside the kEquivalence table
// (test_prefetch_cache_sim.cpp): replay_trace, the netsim_des and
// multi_client drivers through run_sim, a DS-arbitrated ClientSession
// driven directly, LFU/DS rows of both DES drivers on the paper-default
// chain at caches of 25 and 75, and three cold-started ppm chains whose
// exact solves stop at kSolveNodeBudget. Same contract and row
// format as that table: every counter bit for bit, doubles at 17
// significant digits, so any drift here is a real behaviour change, not
// noise. Each row also
// pins the DES books (link utilization, churn departures, deadline hits)
// and, for multi_client, every client's requests:hits:demand.
//
// A second table (kRunSimPins) pins the prefetch_cache, trace_replay and
// prefetch_only drivers through run_sim. Its rows add the requests whose
// T exceeded the viewing time, both memo tiers' hits and misses, and a
// digest of prefetch_only's Figure-5 avg_T_by_v series.
//
// Refresh after an INTENTIONAL behavior change:
//   ./build/tests/test_driver_pins --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintPinTable*'   (one command line)
// and paste the emitted rows over kPins below.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <iterator>
#include <string>

#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "sim/trace_replay.hpp"
#include "util/rng.hpp"
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

SimResult metrics_only(const SimMetrics& m) {
  SimResult r;
  r.metrics = m;
  return r;
}

SimResult replay(PredictorKind predictor, PrefetchPolicy policy,
                 SubArbitration sub) {
  static const Trace trace = pin_trace();
  SimSpec spec;
  spec.cache_size = 6;
  spec.policy = policy;
  spec.sub = sub;
  spec.predictor = predictor;
  spec.warmup = 400;
  return replay_trace(trace, spec);
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

// The paper-default 100-item chain (out-degree 10-20) at `cache` slots:
// des_spec's 8-slot cache never holds more than 8 residents, so these
// rows pin LFU/DS victim choice over tens of residents.
SimSpec chain_spec(SimDriverKind driver, SubArbitration sub,
                   std::size_t cache) {
  SimSpec spec = des_spec(driver, sub);
  spec.workload = SimWorkload{};
  spec.cache_size = cache;
  return spec;
}

SimResult netsim_learned_faulty() {
  SimSpec spec = des_spec(SimDriverKind::NetsimDes, SubArbitration::None);
  spec.predictor = PredictorKind::Markov1;
  spec.predictor_warmup = 50;
  spec.fault.fail_rate = 0.2;
  return run_sim(spec);
}

SimResult netsim_drift() {
  SimSpec spec = des_spec(SimDriverKind::NetsimDes, SubArbitration::None);
  spec.workload.kind = SimWorkloadKind::MarkovDrift;
  spec.workload.drift_period = 300;
  return run_sim(spec);
}

SimResult netsim_overload() {
  SimSpec spec = des_spec(SimDriverKind::NetsimDes, SubArbitration::DS);
  spec.overload.enabled = true;
  spec.overload.window = 16;
  spec.overload.degrade_ratio = 1.5;
  spec.overload.recover_ratio = 1.1;
  return run_sim(spec);
}

SimResult multi_client_mixed_churn() {
  SimSpec spec =
      des_spec(SimDriverKind::MultiClientDes, SubArbitration::None);
  spec.multi_client.churn_period = 300.0;
  spec.multi_client.churn_downtime = 50.0;
  spec.multi_client.overrides.resize(3);
  spec.multi_client.overrides[0].predictor = PredictorKind::Ppm;
  spec.multi_client.overrides[1].predictor = PredictorKind::Lz78;
  spec.predictor_warmup = 20;
  return run_sim(spec);
}

SimResult multi_client_faulty_overload() {
  SimSpec spec =
      des_spec(SimDriverKind::MultiClientDes, SubArbitration::LFU);
  spec.fault.fail_rate = 0.2;
  spec.overload.enabled = true;
  spec.overload.window = 16;
  spec.overload.degrade_ratio = 1.5;
  spec.overload.recover_ratio = 1.1;
  return run_sim(spec);
}

// Flash-crowd herd at half strength over a two-phase link twice as fast
// as the base, with a deadline.
SimResult multi_client_herd_phases() {
  SimSpec spec =
      des_spec(SimDriverKind::MultiClientDes, SubArbitration::None);
  spec.multi_client.phase_align = 0.5;
  spec.multi_client.link_speedup = 2.0;
  spec.link_schedule = {{150.0, 1.0, 0.0}, {50.0, 0.5, 1.0}};
  spec.deadline = 4.0;
  return run_sim(spec);
}

// Every per-client override: a learned client on zipf, a reseeded
// client, a learned iid client that churns, and uneven quotas.
SimResult multi_client_overrides() {
  SimSpec spec = des_spec(SimDriverKind::MultiClientDes, SubArbitration::DS);
  spec.predictor_warmup = 20;
  spec.deadline = 2.0;
  std::vector<MultiClientOverride>& ov = spec.multi_client.overrides;
  ov.resize(3);
  ov[0].workload = spec.workload;
  ov[0].workload->kind = SimWorkloadKind::Zipf;
  ov[0].predictor = PredictorKind::Lz78;
  ov[0].requests = 250;
  ov[1].seed = 99;
  ov[1].requests = 520;
  ov[2].workload = spec.workload;
  ov[2].workload->kind = SimWorkloadKind::Iid;
  ov[2].predictor = PredictorKind::Markov1;
  ov[2].churn_period = 200.0;
  ov[2].churn_downtime = 30.0;
  return run_sim(spec);
}

// A DS-arbitrated ClientSession driven directly on its dense request
// path (no support passed), at a quarter of each state's viewing time.
SimResult session_ds_dense() {
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
    const std::span<const double> row = source.view_at(state).P;
    const auto next = static_cast<ItemId>(source.step(walk));
    session.request(next, v, row);
    state = static_cast<std::size_t>(next);
  }
  return metrics_only(session.metrics());
}

// A ppm predictor with no warm-up on a 1000-item lossy link (perfbench's
// cold-start shape): its first rows put ~1% on dozens of items, and one
// exact solve per chain hits kSolveNodeBudget. Without the budget these
// rows spend 19,801,034, 9,753,196 and 363,022,262 solver nodes; every
// other counter is the unbudgeted run's, so the budget kept each plan.
SimResult ppm_cold_start(std::uint64_t root, std::uint64_t salt,
                         PrefetchPolicy policy, std::size_t requests) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.n_items = 1000;
  spec.cache_size = 50;
  spec.requests = requests;
  spec.seed = Rng(root).split(salt).next_u64();
  spec.policy = policy;
  spec.predictor = PredictorKind::Ppm;
  spec.predictor_warmup = 0;
  spec.fault.fail_rate = 0.05;
  spec.fault.retry.max_attempts = 3;
  spec.fault.retry.backoff_base = 1.0;
  return run_sim(spec);
}

struct PinCase {
  const char* name;
  SimResult (*run)();
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
    {"netsim_oracle_none", [] { return run_sim(des_spec(SimDriverKind::NetsimDes, SubArbitration::None)); }},
    {"netsim_oracle_lfu", [] { return run_sim(des_spec(SimDriverKind::NetsimDes, SubArbitration::LFU)); }},
    {"netsim_oracle_ds", [] { return run_sim(des_spec(SimDriverKind::NetsimDes, SubArbitration::DS)); }},
    {"netsim_markov1_faulty", &netsim_learned_faulty},
    {"netsim_oracle_drift", &netsim_drift},
    {"netsim_oracle_ds_overload", &netsim_overload},
    {"multi_oracle_none", [] { return run_sim(des_spec(SimDriverKind::MultiClientDes, SubArbitration::None)); }},
    {"multi_oracle_lfu", [] { return run_sim(des_spec(SimDriverKind::MultiClientDes, SubArbitration::LFU)); }},
    {"multi_oracle_ds", [] { return run_sim(des_spec(SimDriverKind::MultiClientDes, SubArbitration::DS)); }},
    {"multi_mixed_churn", &multi_client_mixed_churn},
    {"multi_lfu_faulty_overload", &multi_client_faulty_overload},
    {"multi_herd_phases", &multi_client_herd_phases},
    {"multi_overrides", &multi_client_overrides},
    {"session_ds_dense", &session_ds_dense},
    {"netsim_chain_lfu_c25", [] { return run_sim(chain_spec(SimDriverKind::NetsimDes, SubArbitration::LFU, 25)); }},
    {"netsim_chain_lfu_c75", [] { return run_sim(chain_spec(SimDriverKind::NetsimDes, SubArbitration::LFU, 75)); }},
    {"netsim_chain_ds_c25", [] { return run_sim(chain_spec(SimDriverKind::NetsimDes, SubArbitration::DS, 25)); }},
    {"netsim_chain_ds_c75", [] { return run_sim(chain_spec(SimDriverKind::NetsimDes, SubArbitration::DS, 75)); }},
    {"multi_chain_lfu_c25", [] { return run_sim(chain_spec(SimDriverKind::MultiClientDes, SubArbitration::LFU, 25)); }},
    {"multi_chain_lfu_c75", [] { return run_sim(chain_spec(SimDriverKind::MultiClientDes, SubArbitration::LFU, 75)); }},
    {"multi_chain_ds_c25", [] { return run_sim(chain_spec(SimDriverKind::MultiClientDes, SubArbitration::DS, 25)); }},
    {"multi_chain_ds_c75", [] { return run_sim(chain_spec(SimDriverKind::MultiClientDes, SubArbitration::DS, 75)); }},
    {"netsim_ppm_cold_skp", [] { return ppm_cold_start(106, 102, PrefetchPolicy::SKP, 200); }},
    {"netsim_ppm_cold_kp", [] { return ppm_cold_start(106, 102, PrefetchPolicy::KP, 300); }},
    {"netsim_ppm_cold_skp_7_226", [] { return ppm_cold_start(7, 226, PrefetchPolicy::SKP, 300); }},
    // clang-format on
};

struct PinRow {
  const char* name;
  std::uint64_t hits, demand, prefetch, wasted, nodes;
  double mean_T, net_time, link_util;
  std::uint64_t churn, deadline_hits;
  const char* clients;  // per client "requests:hits:demand", space-separated
};

std::string client_books(const SimResult& r) {
  std::string out;
  for (const SimMetrics& m : r.per_client) {
    if (!out.empty()) out += ' ';
    out += std::to_string(m.requests) + ':' + std::to_string(m.hits) + ':' +
           std::to_string(m.demand_fetches);
  }
  return out;
}

const PinRow kPins[] = {
    // clang-format off
    {"replay_markov1_skp", 1415, 466, 3955, 2521, 6429, 4.6530000000000005, 72359, 0, 0, 0, ""},
    {"replay_lz78_skp", 1126, 839, 2669, 1957, 39146, 6.299499999999985, 54539, 0, 0, 0, ""},
    {"replay_ppm_skp", 1444, 460, 4031, 2650, 9984, 4.3130000000000095, 73723, 0, 0, 0, ""},
    {"replay_depgraph_skp", 1494, 476, 4718, 3273, 17668, 4.1674999999999924, 86087, 0, 0, 0, ""},
    {"replay_markov1_none", 629, 1371, 0, 0, 0, 10.191999999999984, 20384, 0, 0, 0, ""},
    {"replay_markov1_kp", 1432, 568, 3831, 2501, 12488, 4.9724999999999966, 71418, 0, 0, 0, ""},
    {"replay_markov1_skp_ds", 1493, 418, 3685, 2568, 5610, 3.9259999999999988, 60544, 0, 0, 0, ""},
    {"netsim_oracle_none", 1135, 216, 4831, 3596, 7714, 3.320666666666662, 74177.5, 0.91513891630477695, 0, 0, ""},
    {"netsim_oracle_lfu", 1211, 166, 4779, 3562, 7348, 2.3460000000000005, 71861.5, 0.90285071739075806, 0, 0, ""},
    {"netsim_oracle_ds", 1196, 166, 4945, 3704, 7460, 2.3676666666666644, 70130.5, 0.88074321990794524, 0, 0, ""},
    {"netsim_markov1_faulty", 908, 520, 3735, 2071, 82232, 5.4173333333333433, 61993.5, 0.73625610147147891, 0, 0, ""},
    {"netsim_oracle_drift", 1176, 229, 4516, 3361, 7209, 3.1366666666666676, 64252.5, 0.83230783180911427, 0, 0, ""},
    {"netsim_oracle_ds_overload", 468, 1025, 373, 272, 561, 8.1533333333333342, 17082, 0.19344317988788856, 0, 0, ""},
    {"multi_oracle_none", 269, 221, 3730, 2802, 6025, 82.754583333333358, 54977.5, 0.9976681305121039, 0, 0, "400:93:62 400:90:96 400:86:63"},
    {"multi_oracle_lfu", 313, 204, 3755, 2886, 5909, 82.327916666666653, 54852.5, 0.9967654300796831, 0, 0, "400:110:60 400:103:84 400:100:60"},
    {"multi_oracle_ds", 285, 198, 3931, 3015, 5885, 78.881249999999994, 53568.5, 0.99577106104543089, 0, 0, "400:100:56 400:99:80 400:86:62"},
    {"multi_mixed_churn", 217, 742, 3865, 3418, 298407, 57.724166666666633, 50432.5, 0.92000729693984584, 362, 0, "400:56:331 400:50:330 400:111:81"},
    {"multi_lfu_faulty_overload", 416, 673, 731, 431, 1050, 24.582916666666666, 20029, 0.61522630584693827, 0, 0, "400:152:210 400:141:230 400:123:233"},
    {"multi_herd_phases", 439, 168, 3946, 2966, 6510, 29.289583333333336, 56321, 0.98045349098256385, 0, 472, "400:159:47 400:138:64 400:142:57"},
    {"multi_overrides", 438, 478, 3706, 3211, 206441, 44.295726495726505, 42366, 0.98241139027698876, 149, 444, "250:126:121 520:243:71 400:69:286"},
    {"session_ds_dense", 667, 587, 1689, 1087, 3848, 8.063499999999987, 27662, 0, 0, 0, ""},
    {"netsim_chain_lfu_c25", 1085, 400, 5843, 5122, 23400, 4.6923333333333295, 87707.5, 0.95899734849520268, 0, 0, ""},
    {"netsim_chain_lfu_c75", 1446, 52, 3556, 3260, 5411, 0.64933333333333287, 54148, 0.63410349794479637, 0, 0, ""},
    {"netsim_chain_ds_c25", 1137, 348, 6763, 5893, 23075, 3.5520000000000045, 86525.5, 0.96410464973759569, 0, 0, ""},
    {"netsim_chain_ds_c75", 1467, 33, 4360, 3940, 5456, 0.27533333333333337, 34531.5, 0.40705747831007166, 0, 0, ""},
    {"multi_chain_lfu_c25", 368, 362, 4333, 3760, 17960, 109.90916666666666, 66237.5, 0.99971323568253678, 0, 0, "400:139:105 400:115:122 400:114:135"},
    {"multi_chain_lfu_c75", 906, 75, 2725, 2380, 5011, 52.467083333333342, 42650, 0.99705442304095759, 0, 0, "400:304:27 400:302:26 400:300:22"},
    {"multi_chain_ds_c25", 362, 335, 4891, 4266, 18697, 108.71583333333335, 65409, 0.99993120686096904, 0, 0, "400:139:96 400:120:108 400:103:131"},
    {"multi_chain_ds_c75", 928, 53, 3179, 2773, 5006, 35.059166666666648, 34776, 0.98518371625258505, 0, 0, "400:314:18 400:313:18 400:301:17"},
    {"netsim_ppm_cold_skp", 11, 189, 49, 48, 1004371, 14.255000000000004, 3227, 0.24060709768618407, 0, 0, ""},
    {"netsim_ppm_cold_kp", 19, 281, 80, 74, 1003792, 14.483333333333336, 5094, 0.25656372598330146, 0, 0, ""},
    {"netsim_ppm_cold_skp_7_226", 22, 276, 95, 86, 1246596, 14.073333333333343, 5415, 0.29344683584966269, 0, 0, ""},
    // clang-format on
};

TEST(DriverPins, MetricsBitIdenticalAtFixedSeed) {
  ASSERT_EQ(std::size(kPins), std::size(kPinCases))
      << "pin table out of date — rerun PrintPinTable";
  for (std::size_t i = 0; i < std::size(kPinCases); ++i) {
    const PinCase& c = kPinCases[i];
    const PinRow& g = kPins[i];
    ASSERT_STREQ(c.name, g.name);
    const SimResult r = c.run();
    const SimMetrics& m = r.metrics;
    EXPECT_EQ(m.hits, g.hits) << c.name;
    EXPECT_EQ(m.demand_fetches, g.demand) << c.name;
    EXPECT_EQ(m.prefetch_fetches, g.prefetch) << c.name;
    EXPECT_EQ(m.wasted_prefetches, g.wasted) << c.name;
    EXPECT_EQ(m.solver_nodes, g.nodes) << c.name;
    EXPECT_DOUBLE_EQ(m.mean_access_time(), g.mean_T) << c.name;
    EXPECT_DOUBLE_EQ(m.network_time, g.net_time) << c.name;
    EXPECT_DOUBLE_EQ(r.link_utilization, g.link_util) << c.name;
    EXPECT_EQ(r.churn_events, g.churn) << c.name;
    EXPECT_EQ(r.deadline_hits, g.deadline_hits) << c.name;
    EXPECT_EQ(client_books(r), g.clients) << c.name;
  }
}

// ---- prefetch_cache, trace_replay and prefetch_only through run_sim ----

// The paper-default 100-item chain through the prefetch_cache driver.
SimSpec cache_spec(SimWorkloadKind kind, std::size_t cache,
                   std::uint64_t seed) {
  SimSpec spec;
  spec.workload.kind = kind;
  spec.cache_size = cache;
  spec.requests = 3000;
  spec.seed = seed;
  return spec;
}

SimSpec sized_spec(double size_per_r) {
  SimSpec spec;
  spec.sized_capacity = 155.0;
  spec.size_per_r = size_per_r;
  spec.sub = SubArbitration::DS;
  spec.requests = 1500;
  spec.seed = 3;
  return spec;
}

// A learnable 40-item chain (or its iid/trace-text variants) replayed
// through a learned predictor.
SimSpec replay_spec(SimWorkloadKind kind, PredictorKind predictor,
                    PrefetchPolicy policy) {
  SimSpec spec;
  spec.driver = SimDriverKind::TraceReplay;
  spec.workload.kind = kind;
  spec.workload.n_items = 40;
  spec.workload.out_degree_lo = 4;
  spec.workload.out_degree_hi = 8;
  spec.policy = policy;
  spec.sub = SubArbitration::DS;
  spec.predictor = predictor;
  spec.cache_size = 8;
  spec.requests = 2000;
  spec.warmup = 200;
  spec.seed = 17;
  return spec;
}

// The Figure-4/5 protocol at n = 10.
SimSpec only_spec(ProbMethod method, PrefetchPolicy policy, DeltaRule rule) {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchOnly;
  spec.workload.kind = SimWorkloadKind::Iid;
  spec.workload.n_items = 10;
  spec.workload.method = method;
  spec.policy = policy;
  spec.delta_rule = rule;
  spec.requests = 4000;
  spec.seed = 9;
  return spec;
}

struct RunSimPinCase {
  const char* name;
  SimSpec (*spec)();
};

const RunSimPinCase kRunSimPinCases[] = {
    // clang-format off
    {"cache_markov_skp", [] { return cache_spec(SimWorkloadKind::Markov, 20, 5); }},
    {"cache_markov_skp_ds", [] { SimSpec s = cache_spec(SimWorkloadKind::Markov, 20, 5); s.sub = SubArbitration::DS; return s; }},
    {"cache_markov_kp_lfu", [] { SimSpec s = cache_spec(SimWorkloadKind::Markov, 10, 6); s.policy = PrefetchPolicy::KP; s.sub = SubArbitration::LFU; return s; }},
    {"cache_markov_perfect", [] { SimSpec s = cache_spec(SimWorkloadKind::Markov, 10, 6); s.policy = PrefetchPolicy::Perfect; return s; }},
    {"cache_zipf", [] { SimSpec s = cache_spec(SimWorkloadKind::Zipf, 15, 21); s.workload.zipf_exponent = 1.4; return s; }},
    {"cache_adversarial", [] { return cache_spec(SimWorkloadKind::Adversarial, 6, 9); }},
    {"cache_markov_drift", [] { SimSpec s = cache_spec(SimWorkloadKind::MarkovDrift, 12, 13); s.workload.drift_period = 500; return s; }},
    {"cache_markov_drift_ds", [] { SimSpec s = cache_spec(SimWorkloadKind::MarkovDrift, 12, 13); s.workload.drift_period = 500; s.sub = SubArbitration::DS; return s; }},
    {"cache_markov1_warmup", [] { SimSpec s = cache_spec(SimWorkloadKind::Markov, 10, 7); s.predictor = PredictorKind::Markov1; s.warmup = 600; return s; }},
    {"cache_lz78_threshold", [] { SimSpec s = cache_spec(SimWorkloadKind::Markov, 10, 7); s.predictor = PredictorKind::Lz78; s.min_profit_threshold = 1.0; s.predictor_min_prob = 0.02; return s; }},
    {"cache_sized_coupled", [] { return sized_spec(1.0); }},
    {"cache_sized_uniform", [] { return sized_spec(0.0); }},
    {"replay_markov_markov1", [] { return replay_spec(SimWorkloadKind::Markov, PredictorKind::Markov1, PrefetchPolicy::SKP); }},
    {"replay_markov_perfect", [] { return replay_spec(SimWorkloadKind::Markov, PredictorKind::Markov1, PrefetchPolicy::Perfect); }},
    {"replay_trace_text_ppm", [] { return replay_spec(SimWorkloadKind::TraceText, PredictorKind::Ppm, PrefetchPolicy::SKP); }},
    {"replay_iid_lz78_kp", [] { return replay_spec(SimWorkloadKind::Iid, PredictorKind::Lz78, PrefetchPolicy::KP); }},
    {"only_skewy_skp_exact", [] { return only_spec(ProbMethod::Skewy, PrefetchPolicy::SKP, DeltaRule::ExactComplement); }},
    {"only_skewy_kp", [] { return only_spec(ProbMethod::Skewy, PrefetchPolicy::KP, DeltaRule::ExactComplement); }},
    {"only_skewy_skp_paper", [] { return only_spec(ProbMethod::Skewy, PrefetchPolicy::SKP, DeltaRule::PaperTail); }},
    {"only_flat_skp_exact", [] { return only_spec(ProbMethod::Flat, PrefetchPolicy::SKP, DeltaRule::ExactComplement); }},
    {"only_flat_kp", [] { return only_spec(ProbMethod::Flat, PrefetchPolicy::KP, DeltaRule::ExactComplement); }},
    {"only_flat_skp_paper", [] { return only_spec(ProbMethod::Flat, PrefetchPolicy::SKP, DeltaRule::PaperTail); }},
    // clang-format on
};

struct RunSimPinRow {
  const char* name;
  std::uint64_t hits, demand, prefetch, wasted, nodes, over;
  std::uint64_t plan_hits, plan_misses, select_hits, select_misses;
  double mean_T, net_time;
  std::uint64_t curve;  // curve_digest of avg_T_by_v (0 when absent)
};

// FNV-1a over the bit patterns of the (v, mean T) series.
std::uint64_t curve_digest(const SimResult& r) {
  if (!r.avg_T_by_v) return 0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [v, mean] : r.avg_T_by_v->series()) {
    for (const double x : {v, mean}) {
      h ^= std::bit_cast<std::uint64_t>(x);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

const RunSimPinRow kRunSimPins[] = {
    // clang-format off
    {"cache_markov_skp", 1806, 1169, 11116, 9580, 44377, 336, 5, 2995, 1323, 1672, 6.843333333333339, 159323, 0x0000000000000000ull},
    {"cache_markov_skp_ds", 2007, 976, 12797, 11152, 45289, 244, 0, 0, 806, 2194, 4.8523333333333412, 153483, 0x0000000000000000ull},
    {"cache_markov_kp_lfu", 1821, 1179, 13108, 11349, 79482, 333, 0, 0, 1360, 1640, 6.6379999999999955, 177467, 0x0000000000000000ull},
    {"cache_markov_perfect", 2646, 0, 2688, 0, 0, 191, 0, 0, 0, 0, 1.2723333333333353, 40614, 0x0000000000000000ull},
    {"cache_zipf", 2454, 546, 579, 517, 64121, 98, 2784, 216, 96, 120, 2.3550000000000031, 11149, 0x0000000000000000ull},
    {"cache_adversarial", 2381, 603, 3799, 1410, 108552, 245, 2176, 824, 289, 535, 2.7760000000000025, 64647, 0x0000000000000000ull},
    {"cache_markov_drift", 1716, 1251, 11307, 9643, 46340, 428, 2, 2998, 595, 2403, 7.5399999999999894, 169384, 0x0000000000000000ull},
    {"cache_markov_drift_ds", 1794, 1180, 12011, 10287, 47152, 407, 0, 0, 522, 2478, 6.7973333333333352, 167482, 0x0000000000000000ull},
    {"cache_markov1_warmup", 1072, 1304, 7372, 6327, 30856, 302, 0, 0, 0, 0, 9.2299999999999738, 127598, 0x0000000000000000ull},
    {"cache_lz78_threshold", 565, 2422, 2008, 1677, 3222, 377, 0, 0, 0, 0, 12.067333333333369, 72224, 0x0000000000000000ull},
    {"cache_sized_coupled", 774, 709, 5494, 4730, 25793, 158, 0, 0, 625, 875, 7.764666666666681, 86832, 0x0000000000000000ull},
    {"cache_sized_uniform", 790, 696, 5470, 4687, 25526, 154, 0, 0, 542, 958, 7.6039999999999974, 86368, 0x0000000000000000ull},
    {"replay_markov_markov1", 1447, 286, 5032, 3678, 11695, 92, 0, 0, 0, 0, 3.1850000000000023, 72974, 0x0000000000000000ull},
    {"replay_markov_perfect", 1628, 76, 1301, 0, 0, 56, 0, 0, 0, 0, 1.1466666666666674, 16936, 0x0000000000000000ull},
    {"replay_trace_text_ppm", 1412, 357, 5278, 3987, 14335, 130, 0, 0, 0, 0, 3.6311111111111045, 76801, 0x0000000000000000ull},
    {"replay_iid_lz78_kp", 1567, 233, 1905, 1807, 18918, 0, 0, 0, 0, 0, 1.6855555555555548, 29879, 0x0000000000000000ull},
    {"only_skewy_skp_exact", 2948, 677, 15177, 11854, 25727, 0, 0, 0, 0, 0, 4.017499999999985, 227234, 0x3f13ef2432640c83ull},
    {"only_skewy_kp", 3005, 995, 15522, 12517, 61980, 0, 0, 0, 0, 0, 4.7900000000000293, 208013, 0x0245c282cfaa419cull},
    {"only_skewy_skp_paper", 2930, 646, 15815, 12461, 20695, 0, 0, 0, 0, 0, 4.8882499999999984, 243678, 0x3912ce320950288eull},
    {"only_flat_skp_exact", 2283, 1611, 14922, 12533, 46551, 0, 0, 0, 0, 0, 7.2305000000000055, 224306, 0x678dfc88e576ca9full},
    {"only_flat_kp", 2338, 1662, 15034, 12696, 78800, 0, 0, 0, 0, 0, 7.3652499999999872, 221005, 0x079bbc5cb2b61bbcull},
    {"only_flat_skp_paper", 2274, 1550, 16633, 14183, 40745, 0, 0, 0, 0, 0, 9.6529999999999916, 253779, 0x4b9ec05268472681ull},
    // clang-format on
};

TEST(DriverPins, RunSimRowsBitIdenticalAtFixedSeed) {
  ASSERT_EQ(std::size(kRunSimPins), std::size(kRunSimPinCases))
      << "pin table out of date — rerun PrintPinTable";
  for (std::size_t i = 0; i < std::size(kRunSimPinCases); ++i) {
    const RunSimPinCase& c = kRunSimPinCases[i];
    const RunSimPinRow& g = kRunSimPins[i];
    ASSERT_STREQ(c.name, g.name);
    const SimResult r = run_sim(c.spec());
    const SimMetrics& m = r.metrics;
    EXPECT_EQ(m.hits, g.hits) << c.name;
    EXPECT_EQ(m.demand_fetches, g.demand) << c.name;
    EXPECT_EQ(m.prefetch_fetches, g.prefetch) << c.name;
    EXPECT_EQ(m.wasted_prefetches, g.wasted) << c.name;
    EXPECT_EQ(m.solver_nodes, g.nodes) << c.name;
    EXPECT_EQ(r.over_viewing_time, g.over) << c.name;
    EXPECT_EQ(r.plan_cache.plans.hits, g.plan_hits) << c.name;
    EXPECT_EQ(r.plan_cache.plans.misses, g.plan_misses) << c.name;
    EXPECT_EQ(r.plan_cache.selections.hits, g.select_hits) << c.name;
    EXPECT_EQ(r.plan_cache.selections.misses, g.select_misses) << c.name;
    EXPECT_DOUBLE_EQ(m.mean_access_time(), g.mean_T) << c.name;
    EXPECT_DOUBLE_EQ(m.network_time, g.net_time) << c.name;
    EXPECT_EQ(curve_digest(r), g.curve) << c.name;
  }
}

// Manual refresh: prints the kPins and kRunSimPins initializer rows (17
// significant digits, round-trip exact). Disabled so ctest never depends
// on it.
TEST(DriverPins, DISABLED_PrintPinTable) {
  for (const PinCase& c : kPinCases) {
    const SimResult r = c.run();
    const SimMetrics& m = r.metrics;
    std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu, %.17g, %.17g, "
                "%.17g, %llu, %llu, \"%s\"},\n",
                c.name, static_cast<unsigned long long>(m.hits),
                static_cast<unsigned long long>(m.demand_fetches),
                static_cast<unsigned long long>(m.prefetch_fetches),
                static_cast<unsigned long long>(m.wasted_prefetches),
                static_cast<unsigned long long>(m.solver_nodes),
                m.mean_access_time(), m.network_time, r.link_utilization,
                static_cast<unsigned long long>(r.churn_events),
                static_cast<unsigned long long>(r.deadline_hits),
                client_books(r).c_str());
  }
  for (const RunSimPinCase& c : kRunSimPinCases) {
    const SimResult r = run_sim(c.spec());
    const SimMetrics& m = r.metrics;
    const PlanMemoStats& memo = r.plan_cache;
    std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu, %llu, %.17g, %.17g, 0x%016llxull},\n",
                c.name, static_cast<unsigned long long>(m.hits),
                static_cast<unsigned long long>(m.demand_fetches),
                static_cast<unsigned long long>(m.prefetch_fetches),
                static_cast<unsigned long long>(m.wasted_prefetches),
                static_cast<unsigned long long>(m.solver_nodes),
                static_cast<unsigned long long>(r.over_viewing_time),
                static_cast<unsigned long long>(memo.plans.hits),
                static_cast<unsigned long long>(memo.plans.misses),
                static_cast<unsigned long long>(memo.selections.hits),
                static_cast<unsigned long long>(memo.selections.misses),
                m.mean_access_time(), m.network_time,
                static_cast<unsigned long long>(curve_digest(r)));
  }
}

}  // namespace
}  // namespace skp
