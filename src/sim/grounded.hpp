// Shared grounding substrate of the net-grounded pipelines.
//
// The netsim_des, scenario and multi_client drivers — and now the skpd
// daemon's session runner (sim/netsim_stepper.hpp) — must agree byte for
// byte on (a) how a SimSpec lowers to the engine config and a
// SimWorkload to the concrete source configs and (b) the stream layout
// that grounds retrieval times (structure / trajectory / catalog streams
// as fixed children of the spec seed, sizes drawn U{1..30} through
// r_i = latency + size_i / bandwidth). That agreement is what makes rows
// from different drivers comparable and what lets a daemon-served session
// replay a netsim_des golden exactly, so the definitions live here, in
// one place, instead of per-driver copies.
#pragma once

#include <cstdint>

#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/adversarial_source.hpp"
#include "workload/markov_chain.hpp"
#include "workload/zipf_source.hpp"

namespace skp {

// Stream-derivation salts of the prefetch_cache driver's seed layout
// (sim/prefetch_cache.cpp): the chain is drawn from Rng(seed), the walk
// from that stream's kPrefetchCacheWalkSalt child, and a drifting
// chain's redraws from Rng(seed)'s kPrefetchCacheDriftSalt child.
// materialize_workload and the shared catalog salt their drift streams
// with the same constant.
inline constexpr std::uint64_t kPrefetchCacheWalkSalt = 0x57a1f;
inline constexpr std::uint64_t kPrefetchCacheDriftSalt = 0xd21f7;

// The planning engine of every driver. The Eq.-(9) diagnostic is
// skipped: no decision or counter reads it.
inline EngineConfig engine_config(const SimSpec& spec) {
  EngineConfig cfg;
  cfg.policy = spec.policy;
  cfg.delta_rule = spec.delta_rule;
  cfg.arbitration.sub = spec.sub;
  cfg.min_profit_threshold = spec.min_profit_threshold;
  cfg.evaluate_plan_g = false;
  return cfg;
}

inline MarkovSourceConfig to_markov_config(const SimWorkload& w) {
  MarkovSourceConfig cfg;
  cfg.n_states = w.n_items;
  cfg.out_degree_lo = w.out_degree_lo;
  cfg.out_degree_hi = w.out_degree_hi;
  cfg.v_lo = w.v_lo;
  cfg.v_hi = w.v_hi;
  cfg.r_lo = w.r_lo;
  cfg.r_hi = w.r_hi;
  cfg.integer_times = w.integer_times;
  return cfg;
}

inline ZipfSourceConfig to_zipf_config(const SimWorkload& w) {
  ZipfSourceConfig cfg;
  cfg.n_items = w.n_items;
  cfg.exponent = w.zipf_exponent;
  cfg.shuffle = w.zipf_shuffle;
  cfg.v_lo = w.v_lo;
  cfg.v_hi = w.v_hi;
  cfg.r_lo = w.r_lo;
  cfg.r_hi = w.r_hi;
  cfg.integer_times = w.integer_times;
  return cfg;
}

inline AdversarialSourceConfig to_adversarial_config(const SimWorkload& w) {
  AdversarialSourceConfig cfg;
  cfg.n_items = w.n_items;
  cfg.hot_set = w.adv_hot_set;
  cfg.escape_prob = w.adv_escape;
  cfg.v_lo = w.v_lo;
  cfg.v_hi = w.v_hi;
  cfg.r_lo = w.r_lo;
  cfg.r_hi = w.r_hi;
  cfg.integer_times = w.integer_times;
  return cfg;
}

// The generative chain of a chain workload (markov | markov_drift |
// zipf | adversarial), drawn from `build`. Every site that grounds one
// (the shared catalog, materialize_workload, the prefetch_cache driver)
// builds it here, so the chain choice and its stream consumption live
// in one place. Sites that plan on oracle rows scatter its rows into a
// reused n-length buffer (MarkovChain::scatter_row).
// Callers reject the other workload kinds with their own messages first.
inline MarkovChain make_workload_chain(const SimWorkload& w, Rng& build) {
  if (w.kind == SimWorkloadKind::Zipf) {
    return make_zipf_chain(to_zipf_config(w), build);
  }
  if (w.kind == SimWorkloadKind::Adversarial) {
    return make_adversarial_chain(to_adversarial_config(w), build);
  }
  SKP_REQUIRE(w.kind == SimWorkloadKind::Markov ||
                  w.kind == SimWorkloadKind::MarkovDrift,
              "no generative chain for workload " << to_string(w.kind));
  return MarkovChain(to_markov_config(w), build);
}

// The stream layout of the net-grounded pipelines. `root` is kept so
// callers can derive further sibling streams (the scenario driver's
// split(4) policy seed).
struct GroundedStreams {
  Rng root, build, walk;
  ServerCatalog catalog;
  NetConfig net;
};

inline GroundedStreams ground_streams(const SimSpec& spec) {
  GroundedStreams g{Rng(spec.seed), Rng(0), Rng(0), {}, {}};
  g.build = g.root.split(1);
  g.walk = g.root.split(2);
  Rng sizes_rng = g.root.split(3);
  g.catalog.sizes.resize(spec.workload.n_items);
  for (auto& s : g.catalog.sizes) {
    s = static_cast<double>(sizes_rng.uniform_int(1, 30));
  }
  g.net.bandwidth = spec.bandwidth;
  g.net.latency = spec.latency;
  return g;
}

}  // namespace skp
