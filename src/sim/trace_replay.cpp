#include "sim/trace_replay.hpp"

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"

namespace skp {

SimMetrics replay_trace(const Trace& trace, const TraceReplayConfig& cfg,
                        PlanMemoStats* plan_cache_stats) {
  SKP_REQUIRE(!trace.empty(), "cannot replay an empty trace");
  SKP_REQUIRE(cfg.cache_size >= 1, "cache_size must be >= 1");
  SKP_REQUIRE(cfg.predictor != PredictorKind::Oracle,
              "trace replay has no oracle probabilities");
  const std::size_t n = trace.n_items();

  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  ecfg.arbitration.sub = cfg.sub;
  ecfg.min_profit_threshold = cfg.min_profit_threshold;
  const PrefetchEngine engine(ecfg);

  SlotCache cache(n, cfg.cache_size);
  FreqTracker freq(n);
  auto predictor = make_predictor(cfg.predictor, n);

  SimMetrics m;
  std::vector<char> unused_prefetch(n, 0);

  // Allocation-free replay loop: the instance borrows the trace's
  // retrieval-time catalog and the recycled filtered row; scratch.P takes
  // the unfiltered post-observation row.
  PlanScratch scratch;
  PrefetchPlan plan;
  std::vector<double> row;
  std::vector<ItemId> support;

  // Memoization wiring (see TraceReplayConfig): the plan tier is keyed
  // by the predictor context (the previously replayed item) and
  // generation-bumped on every observation, so no stored plan can
  // outlive the predictor state it was computed under. The selection
  // tier is not consulted at all — its key would change every request
  // for the same reason, so lookups could never hit.
  std::optional<PlanCache> plans;
  if (cfg.use_plan_cache) {
    plans.emplace(engine.config_digest(), cfg.plan_cache_capacity,
                  /*doorkeeper=*/true);
  }
  ItemId context = kNoItem;

  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const TraceRecord& rec = trace.records()[idx];
    const bool counted = idx >= cfg.warmup;

    predictor->predict_filtered_into(cfg.predictor_min_prob, row, support);
    const InstanceView inst(row, trace.retrieval_times(), rec.viewing_time);

    PlanMemo memo;
    if (plans) {
      memo.plans = &*plans;
      memo.state_key =
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(context));
    }
    // No canonical-order table here, so the support may serve as the
    // candidate filter's hint.
    engine.plan_with_cache_cached(inst, cache, &freq, memo, scratch, plan,
                                  std::nullopt, support);

    // Realized access time against the pre-plan cache (computed before the
    // plan executes — no snapshot copy needed; presence bitmap for O(1)
    // membership).
    const double T = realized_access_time_cached(
        inst, plan.fetch, plan.evict, cache.presence(), rec.item);

    std::size_t victim_idx = 0;
    for (const ItemId f : plan.fetch) {
      if (cache.full()) {
        const ItemId d = plan.evict[victim_idx++];
        if (unused_prefetch[InstanceView::idx(d)]) {
          if (counted) ++m.wasted_prefetches;
          unused_prefetch[InstanceView::idx(d)] = 0;
        }
        cache.replace(d, f);
      } else {
        cache.insert(f);
      }
      unused_prefetch[InstanceView::idx(f)] = 1;
      if (counted) {
        ++m.prefetch_fetches;
        m.network_time += inst.r[InstanceView::idx(f)];
        m.prefetch_network_time += inst.r[InstanceView::idx(f)];
      }
    }
    if (counted) m.solver_nodes += plan.solver_nodes;

    if (counted) {
      m.access_time.add(T);
      ++m.requests;
      if (T == 0.0) ++m.hits;
    }

    freq.record(rec.item);
    predictor->observe(rec.item);
    if (plans) plans->bump_generation();
    context = rec.item;
    unused_prefetch[InstanceView::idx(rec.item)] = 0;
    if (!cache.contains(rec.item)) {
      if (counted) {
        ++m.demand_fetches;
        m.network_time += inst.r[InstanceView::idx(rec.item)];
        m.demand_network_time += inst.r[InstanceView::idx(rec.item)];
      }
      if (cache.full()) {
        // Victim chosen with the *post-observation* belief (unfiltered).
        predictor->predict_into(scratch.P);
        const InstanceView after(scratch.P, trace.retrieval_times(),
                                 rec.viewing_time);
        const ItemId d = choose_victim(after, cache.contents(), &freq,
                                       ecfg.arbitration);
        if (unused_prefetch[InstanceView::idx(d)]) {
          if (counted) ++m.wasted_prefetches;
          unused_prefetch[InstanceView::idx(d)] = 0;
        }
        cache.replace(d, rec.item);
      } else {
        cache.insert(rec.item);
      }
    }
  }
  if (plans && plan_cache_stats) plan_cache_stats->plans = plans->stats();
  return m;
}

}  // namespace skp
