// Scenario-matrix regression harness.
//
// Drives the full pipeline — workload generation -> online predictor ->
// SKP/KP planning -> cache with a classical replacement policy -> realized
// network cost — across the cross-product of
//   {predictor}  x {replacement policy} x {network profile} x {workload}
// with every random stream derived from one fixed seed, so a scenario's
// counters are bit-reproducible. test_scenario_matrix.cpp asserts
// structural invariants over the whole matrix (metrics conservation,
// prefetch bandwidth budget) and pins golden hit-rates on every combo,
// giving future sharding/async/perf refactors a behavioral safety net.
//
// Since the unified simulation runtime landed (src/sim/runtime.hpp) this
// harness is a thin mapping: a ScenarioConfig names a SimSpec and
// run_scenario dispatches it through the driver registry. PlanMode picks
// the execution substrate:
//   * EmptyCache    — Scenario driver, plan over N \ C with
//                     PrefetchEngine::plan; the ReplacementPolicy evicts
//                     for both prefetches and demand misses.
//   * PrArbitration — Scenario driver, the Figure-6 path:
//                     plan_with_cache runs Pr-arbitration against the
//                     live cache and names its own victims; the
//                     ReplacementPolicy still governs demand misses.
//   * NetsimDes     — NetsimDes driver: the same workload/predictor/net
//                     point executed on sim/netsim's ClientSession DES
//                     (prefetches and demand fetches serialized over the
//                     modeled link), locking the netsim path into the
//                     golden matrix.
//   * MultiClientDes — MultiClientDes driver: three clients with private
//                     caches/predictors replaying the same workload shape
//                     over ONE shared link (cfg.requests split across the
//                     clients, so the aggregate serves the same cycle
//                     count) — the golden rows are contention-grounded.
//   * FlashCrowd    — MultiClientDes with phase_align = 0.8: the
//                     clients' viewing times blend toward one shared
//                     herd schedule, so demand spikes hit the shared
//                     link together (hostile world #1).
//   * Churn         — MultiClientDes with a join/leave schedule: every
//                     400 time units of uptime a client departs (cache +
//                     frequency flush, cold predictor, plan-memo
//                     invalidation) and rejoins 60 later (hostile
//                     world #2).
//   * LinkSchedule  — NetsimDes over a piecewise time-varying link: the
//                     profile's nominal quality for 240 time units, then
//                     an 80-unit degraded window (quarter bandwidth,
//                     doubled latency), cycling (hostile world #4).
//                     Planning keeps seeing the static base link — the
//                     stale-estimate regime.
//   * Faulty        — NetsimDes with prefetch-fault injection
//                     (sim/fault.hpp): 15% outright attempt failure, 10%
//                     4x stalls, up to 3 attempts with 0.5 * 2^k backoff.
//                     Demand fetches stay reliable, so the conservation
//                     invariants hold and the goldens pin the
//                     retry/abandon books (hostile world #5).
//   * Overload      — MultiClientDes under the same fault regime with
//                     the adaptive overload controller engaged
//                     (core/overload.hpp): realized waiting against the
//                     calm baseline walks the fleet down the degradation
//                     rungs and back (hostile world #6).
// Hostile world #3 (the adversarial cache-thrashing stream) is a
// workload, not a mode: ScenarioWorkload::Adversarial.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>

#include "sim/runtime.hpp"

namespace skp::testing {

// The harness's cache-policy vocabulary IS the runtime's (same four
// policies, same lowercase tokens) — an alias, so a policy added to the
// runtime is immediately sweepable here and the two can never diverge.
using CachePolicyKind = ReplacementKind;
enum class ScenarioWorkload { MarkovChain, IidSkewy, TraceReplay, Adversarial };
enum class PlanMode {
  EmptyCache,
  PrArbitration,
  NetsimDes,
  MultiClientDes,
  FlashCrowd,
  Churn,
  LinkSchedule,
  Faulty,
  Overload,
};

inline const char* to_string(ScenarioWorkload w) {
  switch (w) {
    case ScenarioWorkload::MarkovChain: return "markov";
    case ScenarioWorkload::IidSkewy: return "iid";
    case ScenarioWorkload::TraceReplay: return "trace";
    case ScenarioWorkload::Adversarial: return "adv";
  }
  return "?";
}

inline const char* to_string(PlanMode m) {
  switch (m) {
    case PlanMode::EmptyCache: return "empty";
    case PlanMode::PrArbitration: return "pr";
    case PlanMode::NetsimDes: return "des";
    case PlanMode::MultiClientDes: return "mc";
    case PlanMode::FlashCrowd: return "flash";
    case PlanMode::Churn: return "churn";
    case PlanMode::LinkSchedule: return "link";
    case PlanMode::Faulty: return "fault";
    case PlanMode::Overload: return "over";
  }
  return "?";
}

// A named (bandwidth, latency) point fed to sim/netsim's NetConfig. The
// name is held inline, not by pointer: gtest prints a parameter that has
// no PrintTo as its bytes, and ctest names each matrix case after them,
// so an address here would rename every case whenever the test binary
// loads at another address.
struct NetProfile {
  char name[8];
  double bandwidth;
  double latency;
};

// The three profiles the matrix sweeps: item sizes are 1..30 size units,
// so retrieval times span roughly 0.4-4 (lan), 3-32 (wan), 9-125 (modem)
// time units against viewing times of 10-60.
inline constexpr NetProfile kLan{"lan", 8.0, 0.25};
inline constexpr NetProfile kWan{"wan", 1.0, 2.0};
inline constexpr NetProfile kModem{"modem", 0.25, 5.0};

struct ScenarioConfig {
  PredictorKind predictor = PredictorKind::Markov1;  // Markov1 | Lz78 | Ppm
  CachePolicyKind cache_policy = CachePolicyKind::LRU;
  NetProfile net = kLan;
  ScenarioWorkload workload = ScenarioWorkload::MarkovChain;
  PlanMode plan_mode = PlanMode::EmptyCache;

  std::size_t n_items = 24;
  std::size_t cache_capacity = 6;
  std::size_t requests = 1200;
  // Observe-only prefix: the predictor trains before planning starts, so
  // early near-uniform distributions don't dominate the goldens.
  std::size_t predictor_warmup = 64;
  // Smoothed predictors put slivers of mass everywhere; entries below this
  // floor are dropped before planning (candidate shortlist).
  double min_prob = 0.02;
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  std::uint64_t seed = 2026;
};

struct ScenarioResult {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;            // served from cache (in NetsimDes
                                     // mode: cache-resident at request
                                     // time, even if still in flight)
  std::uint64_t demand_fetches = 0;  // misses, fetched on demand
  std::uint64_t prefetch_fetches = 0;
  std::uint64_t plans = 0;           // planning rounds that fetched anything
  double prefetch_network_time = 0.0;
  double demand_network_time = 0.0;
  double network_time = 0.0;  // prefetch + demand, accumulated separately
  // Plans violating the stretch-knapsack bandwidth budget (all fetches but
  // the last must complete within the viewing time v; for KP the whole
  // plan must). The matrix asserts this stays 0. (Not evaluated by the
  // NetsimDes driver, whose link model enforces serialization itself.)
  std::uint64_t budget_violations = 0;
  double worst_budget_overrun = 0.0;

  double hit_rate() const {
    return requests ? static_cast<double>(hits) /
                          static_cast<double>(requests)
                    : 0.0;
  }

  bool operator==(const ScenarioResult&) const = default;
};

inline std::string scenario_name(const ScenarioConfig& cfg) {
  std::string name = skp::to_string(cfg.predictor);
  for (auto& c : name) c = static_cast<char>(std::tolower(c));
  name += '_';
  name += to_string(cfg.cache_policy);
  name += '_';
  name += cfg.net.name;
  name += '_';
  name += to_string(cfg.workload);
  if (cfg.plan_mode != PlanMode::EmptyCache) {
    name += '_';
    name += to_string(cfg.plan_mode);
  }
  return name;
}

// Maps a scenario onto the unified runtime's descriptor. The workload
// parameters are the harness's historical ones, so the registry-backed
// runs reproduce the pre-runtime golden values bit for bit.
// MultiClientDes scenarios split cfg.requests across this many clients,
// so a contention row serves the same aggregate cycle count as the
// single-client rows it sits next to.
inline constexpr std::size_t kScenarioClients = 3;

inline SimSpec to_sim_spec(const ScenarioConfig& cfg) {
  SimSpec spec;
  switch (cfg.plan_mode) {
    case PlanMode::NetsimDes:
    case PlanMode::LinkSchedule:
    case PlanMode::Faulty:
      spec.driver = SimDriverKind::NetsimDes;
      break;
    case PlanMode::MultiClientDes:
    case PlanMode::FlashCrowd:
    case PlanMode::Churn:
    case PlanMode::Overload:
      spec.driver = SimDriverKind::MultiClientDes;
      spec.multi_client.clients = kScenarioClients;
      break;
    default:
      spec.driver = SimDriverKind::Scenario;
      break;
  }
  if (cfg.plan_mode == PlanMode::FlashCrowd) {
    spec.multi_client.phase_align = 0.8;
  } else if (cfg.plan_mode == PlanMode::Churn) {
    spec.multi_client.churn_period = 400.0;
    spec.multi_client.churn_downtime = 60.0;
  }
  if (cfg.plan_mode == PlanMode::Faulty ||
      cfg.plan_mode == PlanMode::Overload) {
    spec.fault.fail_rate = 0.15;
    spec.fault.stall_rate = 0.1;
    spec.fault.stall_factor = 4.0;
    spec.fault.retry.max_attempts = 3;
    spec.fault.retry.backoff_base = 0.5;
    spec.fault.retry.backoff_factor = 2.0;
  }
  if (cfg.plan_mode == PlanMode::Overload) {
    spec.overload.enabled = true;
    spec.overload.window = 32;
    spec.overload.degrade_ratio = 1.8;
    spec.overload.recover_ratio = 1.2;
    spec.overload.recover_windows = 2;
  }

  spec.workload.n_items = cfg.n_items;
  switch (cfg.workload) {
    case ScenarioWorkload::MarkovChain:
      spec.workload.kind = SimWorkloadKind::Markov;
      spec.workload.out_degree_lo = 4;
      spec.workload.out_degree_hi = 8;
      spec.workload.v_lo = 10.0;
      spec.workload.v_hi = 60.0;
      break;
    case ScenarioWorkload::IidSkewy:
      spec.workload.kind = SimWorkloadKind::Iid;
      spec.workload.method = ProbMethod::Skewy;
      spec.workload.iid_viewing_time = 30.0;
      break;
    case ScenarioWorkload::TraceReplay:
      spec.workload.kind = SimWorkloadKind::TraceText;
      spec.workload.out_degree_lo = 2;
      spec.workload.out_degree_hi = 6;
      spec.workload.v_lo = 5.0;
      spec.workload.v_hi = 40.0;
      break;
    case ScenarioWorkload::Adversarial:
      // Hot set of 8 against a 6-slot cache: the alternating cliques
      // never quite fit, thrashing the frequency books and the plan
      // caches (workload/adversarial_source.hpp).
      spec.workload.kind = SimWorkloadKind::Adversarial;
      spec.workload.adv_hot_set = 8;
      spec.workload.adv_escape = 0.02;
      spec.workload.v_lo = 10.0;
      spec.workload.v_hi = 60.0;
      break;
  }

  spec.policy = cfg.policy;
  spec.predictor = cfg.predictor;
  spec.predictor_min_prob = cfg.min_prob;
  spec.predictor_warmup = cfg.predictor_warmup;
  spec.cache_size = cfg.cache_capacity;
  spec.replacement = cfg.cache_policy;
  spec.pr_planning = cfg.plan_mode == PlanMode::PrArbitration;
  spec.bandwidth = cfg.net.bandwidth;
  spec.latency = cfg.net.latency;
  if (cfg.plan_mode == PlanMode::LinkSchedule) {
    // The profile's nominal quality, then a degraded window (quarter
    // bandwidth, doubled latency), cycling. Relative to the profile so
    // every net row degrades proportionally.
    spec.link_schedule = {
        {240.0, cfg.net.bandwidth, cfg.net.latency},
        {80.0, cfg.net.bandwidth / 4.0, cfg.net.latency * 2.0},
    };
  }
  if (spec.driver == SimDriverKind::MultiClientDes) {
    // Split the aggregate budget without dropping the remainder: the
    // first (requests % clients) clients serve one extra cycle. With the
    // historical 1200/3 the remainder is zero and no overrides are
    // emitted, so the pre-existing golden rows are untouched.
    const std::size_t base = cfg.requests / kScenarioClients;
    const std::size_t rem = cfg.requests % kScenarioClients;
    spec.requests = base;
    if (rem != 0) {
      spec.multi_client.overrides.resize(kScenarioClients);
      for (std::size_t c = 0; c < rem; ++c) {
        spec.multi_client.overrides[c].requests = base + 1;
      }
    }
  } else {
    spec.requests = cfg.requests;
  }
  spec.seed = cfg.seed;
  return spec;
}

inline ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  const SimSpec spec = to_sim_spec(cfg);
  const SimResult sim = run_sim(spec);
  ScenarioResult res;
  res.requests = sim.metrics.requests;
  // The DES modes serve a request from the cache whenever the item is
  // resident, even if its transfer is still completing (T > 0 then);
  // SimResult::resident_hits keeps the conservation invariant uniform
  // across modes (in the other modes it coincides with metrics.hits).
  const bool des = spec.driver == SimDriverKind::NetsimDes ||
                   spec.driver == SimDriverKind::MultiClientDes;
  res.hits = des ? sim.resident_hits() : sim.metrics.hits;
  res.demand_fetches = sim.metrics.demand_fetches;
  res.prefetch_fetches = sim.metrics.prefetch_fetches;
  res.plans = sim.plans;
  res.prefetch_network_time = sim.metrics.prefetch_network_time;
  res.demand_network_time = sim.metrics.demand_network_time;
  res.network_time = sim.metrics.network_time;
  res.budget_violations = sim.budget_violations;
  res.worst_budget_overrun = sim.worst_budget_overrun;
  return res;
}

}  // namespace skp::testing
