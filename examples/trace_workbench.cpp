// Trace workbench: record a session, persist it, and replay it under
// every policy/predictor combination — the offline-evaluation workflow a
// deployment team would run against production access logs before turning
// speculative prefetching on.
//
// Usage:
//   example_trace_workbench                 # synthesize, save, evaluate
//   example_trace_workbench <trace-file>    # evaluate an existing trace
#include <iomanip>
#include <iostream>

#include "sim/trace_replay.hpp"
#include "workload/markov_chain.hpp"

namespace {

using namespace skp;

Trace synthesize_session(std::uint64_t seed) {
  // A browsing session over 50 documents with bursty revisit structure.
  Rng build(seed);
  MarkovSourceConfig cfg;
  cfg.n_states = 50;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 9;
  cfg.v_lo = 2.0;
  cfg.v_hi = 60.0;
  // Recording only walks the chain, so no dense oracle rows are built.
  const MarkovChain chain(cfg, build);
  Trace trace(cfg.n_states,
              std::vector<double>(chain.retrieval_times().begin(),
                                  chain.retrieval_times().end()));
  Rng walk = build.split(5);
  std::size_t state = 0;
  for (int i = 0; i < 5000; ++i) {
    const double v = chain.viewing_time(state);
    state = chain.sample_from(state, walk);
    trace.append(static_cast<ItemId>(state), v);
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  Trace trace = [&] {
    if (argc > 1) {
      std::cout << "loading trace from " << argv[1] << "\n";
      return Trace::load_file(argv[1]);
    }
    std::cout << "synthesizing a 5000-request browsing session ...\n";
    Trace t = synthesize_session(77);
    const std::string path = "session.skptrace";
    t.save_file(path);
    std::cout << "saved to ./" << path << " (replayable with this tool)\n";
    return t;
  }();

  std::cout << "\ntrace: " << trace.size() << " requests over "
            << trace.n_items() << " items\n\n";
  std::cout << "  policy      predictor  mean T     hit rate   net "
               "time/req\n";

  struct Row {
    PrefetchPolicy policy;
    PredictorKind predictor;
  };
  const Row rows[] = {
      {PrefetchPolicy::None, PredictorKind::Markov1},
      {PrefetchPolicy::KP, PredictorKind::Markov1},
      {PrefetchPolicy::SKP, PredictorKind::Markov1},
      {PrefetchPolicy::SKP, PredictorKind::Ppm},
      {PrefetchPolicy::SKP, PredictorKind::Lz78},
      {PrefetchPolicy::SKP, PredictorKind::DependencyWindow},
  };
  for (const auto& row : rows) {
    SimSpec spec;  // the trace supplies the catalog and the requests
    spec.cache_size = 12;
    spec.policy = row.policy;
    spec.sub = SubArbitration::DS;
    spec.predictor = row.predictor;
    spec.warmup = trace.size() / 10;
    const SimMetrics m = replay_trace(trace, spec).metrics;
    std::cout << "  " << std::setw(8) << to_string(row.policy) << "  "
              << std::setw(9) << to_string(row.predictor) << "  "
              << std::setw(9) << m.mean_access_time() << "  "
              << std::setw(9) << m.hit_rate() << "  "
              << m.network_time_per_request() << "\n";
  }
  std::cout << "\nReplay is paired (every row sees the identical request "
               "sequence), so the\ndifferences are attributable to "
               "policy and access model alone.\n";
  return 0;
}
