// Trace-driven policy evaluation.
//
// Replays an access trace (workload/trace.hpp) through the prefetch+cache
// pipeline. Unlike the Fig.-7 simulator there is no oracle: next-access
// probabilities come from an online-learned predictor, which is exactly
// the deployment configuration the paper's Section 6 sketches ("One of
// the models proposed in the literature might serve the purpose of
// providing this knowledge"). Every policy sees the identical request
// sequence, so comparisons are paired. The replay runs the Monte-Carlo
// request loop of sim/prefetch_cache.cpp over the recorded sequence; the
// Perfect policy prefetches each record's item. Learned rows change with
// every observation, so the replay builds no plan-memo tier.
#pragma once

#include "sim/runtime.hpp"
#include "workload/trace.hpp"

namespace skp {

// The registry's trace_replay entry: records spec.requests cycles of
// spec.workload (materialize_workload, streams Rng(seed).split(1) and
// split(2)) and replays them.
SimResult run_trace_replay(const SimSpec& spec);

// Replays a recorded trace. The trace supplies the catalog and the
// requests; the spec supplies the cache size, policy, sub-arbitration,
// delta rule, predictor, its min_prob, the profit threshold and the
// warmup, and its workload, requests and seed are not read. Both entries
// throw std::invalid_argument when the spec asks for the oracle predictor
// (a trace carries no ground-truth probabilities) or a field the replay
// cannot honor, and this one when the trace is empty.
SimResult replay_trace(const Trace& trace, const SimSpec& spec);

}  // namespace skp
