#include "sim/prefetch_only.hpp"

#include <algorithm>
#include <cmath>

#include "core/access_model.hpp"
#include "workload/request_stream.hpp"

namespace skp {

PrefetchOnlyResult run_prefetch_only(const PrefetchOnlyConfig& cfg) {
  SKP_REQUIRE(cfg.n_items >= 1, "n_items");
  SKP_REQUIRE(cfg.r_lo > 0 && cfg.r_lo <= cfg.r_hi, "r range");
  SKP_REQUIRE(cfg.v_lo >= 0 && cfg.v_lo <= cfg.v_hi, "v range");
  PrefetchOnlyResult result(static_cast<std::int64_t>(cfg.v_lo),
                            static_cast<std::int64_t>(cfg.v_hi));
  Rng rng(cfg.seed);
  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  const PrefetchEngine engine(ecfg);

  // Every iteration redraws (P, r, v) into the same storage and plans
  // through the same scratch buffers — the run never allocates after
  // the first iteration.
  Instance inst;
  inst.P.resize(cfg.n_items);
  inst.r.resize(cfg.n_items);
  PlanScratch scratch;
  PrefetchPlan plan;

  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    // Step 1: generate P, r, v.
    generate_probabilities_into(cfg.n_items, cfg.method, rng, inst.P,
                                cfg.skew_exponent);
    for (auto& x : inst.r) {
      x = rng.uniform_time(cfg.r_lo, cfg.r_hi, cfg.integer_times);
    }
    inst.v = rng.uniform_time(cfg.v_lo, cfg.v_hi, cfg.integer_times);

    // Step 3 (drawn before planning so the Perfect oracle can see it; the
    // request is independent of the plan for every other policy).
    const ItemId requested = sample_categorical(inst.P, rng);

    // Step 2: prefetch.
    engine.plan(inst, scratch, plan, requested);

    // Step 4: access time per Figure 2.
    const double T = realized_access_time(inst, plan.fetch, requested);

    // Step 5: output v and T (binned by v, as the paper plots).
    const auto vbin = static_cast<std::int64_t>(std::llround(inst.v));
    result.avg_T_by_v.add(vbin, T);
    result.metrics.access_time.add(T);
    ++result.metrics.requests;
    if (T == 0.0) ++result.metrics.hits;
    result.metrics.solver_nodes += plan.solver_nodes;
    result.metrics.prefetch_fetches += plan.fetch.size();
    for (ItemId f : plan.fetch) {
      result.metrics.network_time += inst.r[Instance::idx(f)];
      result.metrics.prefetch_network_time += inst.r[Instance::idx(f)];
      if (f != requested) ++result.metrics.wasted_prefetches;
    }
    if (std::find(plan.fetch.begin(), plan.fetch.end(), requested) ==
        plan.fetch.end()) {
      ++result.metrics.demand_fetches;
      result.metrics.network_time += inst.r[Instance::idx(requested)];
      result.metrics.demand_network_time += inst.r[Instance::idx(requested)];
    }
    if (result.scatter.size() < cfg.scatter_limit) {
      result.scatter.emplace_back(inst.v, T);
    }
  }
  return result;
}

}  // namespace skp
