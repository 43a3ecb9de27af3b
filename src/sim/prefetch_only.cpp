#include "sim/prefetch_only.hpp"

#include <algorithm>
#include <cmath>

#include "core/access_model.hpp"
#include "sim/grounded.hpp"
#include "workload/request_stream.hpp"

namespace skp {

namespace {

// Figure 5 keeps one bin per integer viewing time, allocated before the
// first iteration; every bench, test and example range has at most 500.
constexpr double kMaxViewingBins = 65536.0;

}  // namespace

SimResult run_prefetch_only(const SimSpec& spec) {
  return run_prefetch_only(spec, {});
}

SimResult run_prefetch_only(const SimSpec& spec,
                            std::span<std::pair<double, double>> scatter) {
  require_read_sections(spec, SimDriverKind::PrefetchOnly);
  const SimWorkload& w = spec.workload;
  SKP_REQUIRE(w.kind == SimWorkloadKind::Iid,
              "prefetch_only redraws P each iteration — use an iid "
              "workload");
  SKP_REQUIRE(spec.predictor == PredictorKind::Oracle,
              "prefetch_only has no predictor pipeline");
  // Reject rather than silently drop fields this protocol cannot honor:
  // the cache is flushed per iteration, so there is no sub-arbitration
  // and no profit thresholding to apply.
  SKP_REQUIRE(spec.sub == SubArbitration::None,
              "prefetch_only has no cache to sub-arbitrate");
  SKP_REQUIRE(spec.min_profit_threshold == 0.0,
              "prefetch_only does not support min_profit_threshold");
  SKP_REQUIRE(w.n_items >= 1, "n_items");
  SKP_REQUIRE(w.r_lo > 0 && w.r_lo <= w.r_hi, "r range");
  SKP_REQUIRE(w.v_lo >= 0 && w.v_lo <= w.v_hi, "v range");
  SKP_REQUIRE(std::isfinite(w.v_hi), "v_hi = " << w.v_hi
                                               << " must be finite");
  SKP_REQUIRE(std::ceil(w.v_hi) - std::floor(w.v_lo) + 1.0 <= kMaxViewingBins,
              "viewing range [" << w.v_lo << ", " << w.v_hi << "] needs "
                                << "more than " << kMaxViewingBins
                                << " Figure-5 bins");
  SKP_REQUIRE(scatter.size() <= spec.requests,
              "scatter buffer of " << scatter.size() << " exceeds the "
                                   << spec.requests << " iterations");

  // Step 5 files each sample under the integer nearest v, so the bins
  // span every value a draw in [v_lo, v_hi] can round to.
  SimResult result;
  result.avg_T_by_v.emplace(static_cast<std::int64_t>(std::floor(w.v_lo)),
                            static_cast<std::int64_t>(std::ceil(w.v_hi)));
  BinnedMeans& avg_T_by_v = *result.avg_T_by_v;
  SimMetrics& m = result.metrics;
  Rng rng(spec.seed);
  const PrefetchEngine engine(engine_config(spec));

  // Every iteration redraws (P, r, v) into the same storage and plans
  // through the same scratch buffers — the run never allocates after
  // the first iteration.
  Instance inst;
  inst.P.resize(w.n_items);
  inst.r.resize(w.n_items);
  PlanScratch scratch;
  PrefetchPlan plan;

  for (std::size_t it = 0; it < spec.requests; ++it) {
    // Step 1: generate P, r, v.
    generate_probabilities_into(w.n_items, w.method, rng, inst.P,
                                w.skew_exponent);
    for (auto& x : inst.r) {
      x = rng.uniform_time(w.r_lo, w.r_hi, w.integer_times);
    }
    inst.v = rng.uniform_time(w.v_lo, w.v_hi, w.integer_times);

    // Step 3 (drawn before planning so the Perfect oracle can see it; the
    // request is independent of the plan for every other policy).
    const ItemId requested = sample_categorical(inst.P, rng);

    // Step 2: prefetch.
    engine.plan(inst, scratch, plan, requested);

    // Step 4: access time per Figure 2.
    const double T = realized_access_time(inst, plan.fetch, requested);

    // Step 5: output v and T (binned by v, as the paper plots).
    avg_T_by_v.add(static_cast<std::int64_t>(std::llround(inst.v)), T);
    m.access_time.add(T);
    ++m.requests;
    if (T == 0.0) ++m.hits;
    m.solver_nodes += plan.solver_nodes;
    m.prefetch_fetches += plan.fetch.size();
    for (ItemId f : plan.fetch) {
      m.network_time += inst.r[Instance::idx(f)];
      m.prefetch_network_time += inst.r[Instance::idx(f)];
      if (f != requested) ++m.wasted_prefetches;
    }
    if (std::find(plan.fetch.begin(), plan.fetch.end(), requested) ==
        plan.fetch.end()) {
      ++m.demand_fetches;
      m.network_time += inst.r[Instance::idx(requested)];
      m.demand_network_time += inst.r[Instance::idx(requested)];
    }
    if (it < scatter.size()) scatter[it] = {inst.v, T};
  }
  return result;
}

}  // namespace skp
