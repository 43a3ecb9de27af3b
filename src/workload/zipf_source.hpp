// Zipf request source (extension; ROADMAP "as many scenarios as you can
// imagine").
//
// Web/file-access traces are classically Zipf-distributed: the k-th most
// popular item draws probability proportional to k^-s. This builds that
// workload as a rank-1 Markov chain — every state carries the SAME
// next-access row over all items, the Zipf distribution itself — so it
// drops unchanged into every simulator that walks a MarkovChain or plans
// on its scattered oracle rows. Requests are therefore
// i.i.d. Zipf draws, but with a persistent item catalog (fixed per-item
// retrieval times and per-state viewing times), unlike the
// flush-per-iteration prefetch-only protocol.
//
// With `shuffle` (default) item id is decorrelated from popularity rank;
// with shuffle off item 0 is the most popular, which tests use to check
// the tail exponent directly.
#pragma once

#include "util/rng.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

struct ZipfSourceConfig {
  std::size_t n_items = 100;
  double exponent = 1.1;  // tail exponent s: P(rank k) proportional to k^-s
  bool shuffle = true;    // decouple item id from popularity rank
  double v_lo = 1.0, v_hi = 100.0;  // per-state viewing times
  double r_lo = 1.0, r_hi = 30.0;   // per-item retrieval times
  bool integer_times = true;        // draw v, r as integers (paper-style)
};

// Draws the v/r catalogs and the Zipf row from `rng` (deterministic in the
// stream) and assembles the rank-1 chain. Self-transitions are allowed —
// an i.i.d. draw may repeat the current item. Every state lists all n
// items, so this chain alone is O(n^2).
MarkovChain make_zipf_chain(const ZipfSourceConfig& config, Rng& rng);

}  // namespace skp
