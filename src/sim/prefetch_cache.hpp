// The "prefetch and cache" Monte-Carlo simulation of Section 5.3 (Fig. 7).
//
// Protocol (paper caption + DESIGN.md D5): a Markov source walks its
// states; in state s the prefetcher sees P = transition row of s and
// v = v_s, plans (F, D) against the current cache via the Figure-6
// algorithm, the prefetched items replace the victims, then the source
// steps to s' and requests item s'. The realized access time follows the
// Section-5 cases (0 on hit, st(F) for z, st(F) + r otherwise). A missed
// request is demand-fetched and *must* claim a victim (minimal-Pr with the
// configured sub-arbitration). Frequencies feed LFU/DS sub-arbitration.
//
// Extensions beyond the paper, each a SimSpec field unless noted:
//   * predictor — replace the oracle transition row with a learned
//     predictor (paper Section 6, "access modelling ... might serve").
//   * min_profit_threshold — suppress low-value prefetches to trade access
//     improvement for network usage (paper Section 6, network-usage
//     policy).
//   * sized_capacity — a byte-addressed SizedCache with density
//     arbitration instead of equal-size slots (paper Section 6); an
//     uncacheable request (size > capacity) is served without caching.
//     bench/ablation_sizes uses it to price the equal-size assumption.
//   * zipf, adversarial and markov_drift workloads (sim/runtime.hpp).
//   * lookahead — plan against probabilities blended over a horizon of
//     future steps (paper Section 6, "looking ahead deeper"); the horizon
//     is an argument of run_prefetch_cache_lookahead, not a spec field.
//
// Every entry point here, and both in sim/trace_replay.hpp, runs one
// request loop: the walk or the recorded sequence feeds it, and the cache
// kind (slot or sized) is its one type parameter.
#pragma once

#include <cstddef>

#include "sim/runtime.hpp"

namespace skp {

// The registry's prefetch_cache entry; deterministic in spec.seed. The
// chain is drawn from the seed as well, so two runs with equal seeds share
// both the chain and the trajectory (the Fig. 7 policy comparison holds
// every policy to the same workload). Throws std::invalid_argument on a
// spec field this driver cannot honor.
SimResult run_prefetch_cache(const SimSpec& spec);

// As above, planning against probabilities blended over `horizon` future
// steps with decay 0.5 (core/lookahead.hpp); horizon 1 is the paper's
// one-access lookahead and run_prefetch_cache's result. A blend is built
// from oracle rows, so a learned predictor or a sized cache with a
// horizon above 1 is refused.
SimResult run_prefetch_cache_lookahead(const SimSpec& spec,
                                       std::size_t horizon);

}  // namespace skp
