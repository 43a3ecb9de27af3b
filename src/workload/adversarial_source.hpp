// Adversarial request source (extension; ROADMAP "hostile and
// non-stationary worlds").
//
// A workload built to hurt the caching layers instead of flattering
// them: the catalog is split into two disjoint hot cliques sized just
// past the plan/content caches, and the walk ping-pongs between them.
// Within a clique the next access is uniform over the OTHER members
// (no self-loops — every request changes state, so frequency books
// never settle on one item), and with a small escape probability the
// walk defects to the rival clique, evicting everything the caches
// just learned. States outside the cliques are cold entry points that
// drop the walk into clique A.
//
// The result is still a plain MarkovChain — walks, scattered oracle rows,
// successor hints, plan memoization, and the DES all consume it
// unchanged — but its stationary behaviour alternates hot sets of
// `hot_set` items each, so any cache with capacity < hot_set thrashes
// within a clique and any cache with capacity < 2*hot_set thrashes
// across escapes. Tests pin the plan-cache hit-rate ceiling this
// produces.
#pragma once

#include "util/rng.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

struct AdversarialSourceConfig {
  std::size_t n_items = 24;
  std::size_t hot_set = 8;    // clique size; needs 2*hot_set <= n_items
  double escape_prob = 0.02;  // per-step chance of defecting cliques
  double v_lo = 1.0, v_hi = 100.0;  // per-state viewing times
  double r_lo = 1.0, r_hi = 30.0;   // per-item retrieval times
  bool integer_times = true;        // draw v, r as integers (paper-style)
};

// Draws the v/r catalogs from `rng` (deterministic in the stream) and
// assembles the two-clique chain: clique A = items [0, hot_set), clique
// B = items [hot_set, 2*hot_set), cold states = the rest.
MarkovChain make_adversarial_chain(const AdversarialSourceConfig& config,
                                   Rng& rng);

}  // namespace skp
