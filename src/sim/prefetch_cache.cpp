#include "sim/prefetch_cache.hpp"

#include <algorithm>
#include <optional>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"
#include "core/lookahead.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"

namespace skp {

const char* to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::Oracle: return "oracle";
    case PredictorKind::Markov1: return "markov1";
    case PredictorKind::Ppm: return "ppm";
    case PredictorKind::DependencyWindow: return "depgraph";
    case PredictorKind::Lz78: return "lz78";
  }
  return "?";
}

std::unique_ptr<Predictor> make_predictor(PredictorKind kind,
                                          std::size_t n) {
  switch (kind) {
    case PredictorKind::Oracle: return nullptr;
    case PredictorKind::Markov1:
      return std::make_unique<MarkovPredictor>(n, /*laplace=*/0.05);
    case PredictorKind::Ppm:
      return std::make_unique<PpmPredictor>(n, /*order=*/2);
    case PredictorKind::DependencyWindow:
      return std::make_unique<DependencyGraph>(n, /*window=*/2);
    case PredictorKind::Lz78:
      return std::make_unique<Lz78Predictor>(n);
  }
  return nullptr;
}

PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& cfg,
                                       MarkovSource& source, Rng& walk_rng) {
  SKP_REQUIRE(cfg.cache_size >= 1, "cache_size must be >= 1");
  const std::size_t n = source.n_states();

  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  ecfg.arbitration.sub = cfg.sub;
  ecfg.arbitration.strict_ties = cfg.strict_ties;
  ecfg.min_profit_threshold = cfg.min_profit_threshold;
  // Monte-Carlo hot loop: skip the per-round Eq.-(9) diagnostic no
  // counter consumes.
  ecfg.evaluate_plan_g = false;
  const PrefetchEngine engine(ecfg);

  SlotCache cache(n, cfg.cache_size);
  FreqTracker freq(n);
  auto predictor = make_predictor(cfg.predictor, n);

  // Track which cached items were prefetched and never yet accessed so
  // wasted prefetches can be charged when they are evicted unused.
  std::vector<char> unused_prefetch(n, 0);

  // The whole request loop runs allocation-free: the instance is a
  // borrowed view (source row / predictor buffer), and `scratch`/`plan`
  // recycle every planning buffer across the cfg.requests iterations.
  // A predictor's filtered planning row and its support live apart from
  // scratch.P, which takes the unfiltered demand-victim row.
  PlanScratch scratch;
  PrefetchPlan plan;
  std::vector<double> learned_row;
  std::vector<ItemId> learned_support;

  // Cross-request memoization, two tiers (core/plan_cache.hpp): completed
  // plans keyed by (state, cache set), solver selections keyed by
  // (state, candidate set) — the latter hits constantly even while the
  // cache churns, and is valid under LFU/DS (the solve never reads
  // frequencies). The canonical-order table additionally requires P to be
  // the raw transition row (lookahead blends widen the support), so it is
  // oracle-mode-only. Context the keys cannot see is handled by
  // generation bumps below, which degrade the affected tier to a
  // correctness-preserving no-op.
  // Plans additionally depend on frequency state under LFU/DS
  // sub-arbitration and on the predictor's evolving row. That context
  // changes after EVERY request (a freq.record / predictor observation),
  // which would bump the plan tier's generation each iteration — and a
  // tier whose generation never repeats can never hit. Rather than pay
  // ~2 probe runs per request for a structurally-dead tier, skip it
  // entirely: all its counters read zero, which is exactly the hit count
  // the always-bumped tier reported.
  const bool volatile_plans =
      predictor != nullptr || cfg.sub != SubArbitration::None;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  std::optional<CanonicalOrderTable> canon;
  if (cfg.use_plan_cache) {
    if (!volatile_plans) {
      plans.emplace(engine.config_digest(), cfg.plan_cache_capacity,
                    /*doorkeeper=*/true);
    }
    // Selections depend only on the per-state probability row, which a
    // learned predictor rewrites every observation — the tier could then
    // never hit, so it is not consulted at all in predictor mode.
    if (!predictor) {
      selections.emplace(engine.config_digest(), cfg.plan_cache_capacity);
    }
    if (!predictor && cfg.lookahead_horizon <= 1) canon.emplace(n);
  }

  PrefetchCacheResult result;
  auto& m = result.metrics;

  // Phase-shift stream, derived from the config seed (not from walk_rng,
  // so drifting and static runs share the walk stream between
  // changepoints and the caller-supplied-source overload stays usable).
  Rng drift_rng = Rng(cfg.seed).split(kPrefetchCacheDriftSalt);

  std::size_t state = source.current_state();
  if (predictor) predictor->observe(static_cast<ItemId>(state));

  for (std::size_t req = 0; req < cfg.requests; ++req) {
    const bool counted = req >= cfg.warmup;
    if (cfg.drift_period != 0 && req != 0 && req % cfg.drift_period == 0) {
      // Changepoint: the transition rows every memoized plan, solver
      // selection and canonical order was computed from are gone.
      source.redraw_transitions(cfg.source, drift_rng);
      if (plans) plans->bump_generation();
      if (selections) selections->bump_generation();
      if (canon) canon->invalidate_all();
    }

    // What the prefetcher knows in the current state. In plain oracle
    // mode P is the sparse transition row, and the source's successor
    // list (ascending, exactly the positive entries) doubles as the
    // engine's candidate-support hint.
    InstanceView inst = source.view_at(state);
    std::span<const ItemId> positive_hint = source.successors(state);
    if (predictor) {
      predictor->predict_filtered_into(cfg.predictor_min_prob, learned_row,
                                       learned_support);
      inst.P = learned_row;
      // The canonical-order table is oracle-only, so no table assumes a
      // fixed row per state here.
      positive_hint = learned_support;
    } else if (cfg.lookahead_horizon > 1) {
      horizon_probabilities_into(source, state, cfg.lookahead_horizon,
                                 cfg.lookahead_decay, scratch.P);
      inst.P = scratch.P;
      positive_hint = {};  // blended rows widen the support
    }

    // The source decides the next request now; only the Perfect oracle may
    // look at it.
    const auto next = static_cast<ItemId>(source.step(walk_rng));
    std::optional<ItemId> oracle;
    if (cfg.policy == PrefetchPolicy::Perfect) oracle = next;

    // Plan against the current cache (memoized when configured; a
    // default PlanMemo makes this exactly plan_with_cache).
    PlanMemo memo;
    memo.plans = plans ? &*plans : nullptr;
    memo.selections = selections ? &*selections : nullptr;
    memo.canon = canon ? &*canon : nullptr;
    memo.state_key = state;
    engine.plan_with_cache_cached(inst, cache, &freq, memo, scratch, plan,
                                  oracle, positive_hint);

    // Realized access time (Section 5 cases) against the pre-plan cache:
    // computed before the plan mutates the cache, which is exactly the
    // "cache before" snapshot the model asks for — no copy needed, and
    // membership via the presence bitmap instead of a contents scan.
    const double T = realized_access_time_cached(
        inst, plan.fetch, plan.evict, cache.presence(), next);

    // Execute the prefetch.
    {
      std::size_t victim_idx = 0;
      for (std::size_t k = 0; k < plan.fetch.size(); ++k) {
        const ItemId f = plan.fetch[k];
        if (cache.full()) {
          SKP_ASSERT(victim_idx < plan.evict.size());
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
    }
    if (counted) m.solver_nodes += plan.solver_nodes;

    if (counted) {
      m.access_time.add(T);
      ++m.requests;
      if (T == 0.0) ++m.hits;
      if (T > source.viewing_time(state)) ++result.over_viewing_time;
    }

    // Serve the request: record frequency, learn, demand-fetch on miss.
    freq.record(next);
    if (predictor) predictor->observe(next);
    // The observation/record just invalidated every stored plan that
    // depended on predictor or frequency state — which is why the plan
    // tier was never instantiated under volatile_plans (selections are
    // simply not consulted in predictor mode, see above).
    unused_prefetch[InstanceView::idx(next)] = 0;

    if (!cache.contains(next)) {
      if (counted) {
        ++m.demand_fetches;
        m.network_time += source.retrieval_time(next);
        m.demand_network_time += source.retrieval_time(next);
      }
      if (cache.full()) {
        // "Demand-fetched item, however, must have a victim": minimal-Pr
        // with the probabilities now in force (the new state's row,
        // unfiltered).
        InstanceView next_inst =
            source.view_at(static_cast<std::size_t>(next));
        if (predictor) {
          predictor->predict_into(scratch.P);
          next_inst.P = scratch.P;
        }
        const ItemId d = choose_victim(next_inst, cache.contents(), &freq,
                                       ecfg.arbitration);
        if (unused_prefetch[InstanceView::idx(d)]) {
          if (counted) ++m.wasted_prefetches;
          unused_prefetch[InstanceView::idx(d)] = 0;
        }
        cache.replace(d, next);
      } else {
        cache.insert(next);
      }
    }

    state = static_cast<std::size_t>(next);
  }
  if (plans) result.plan_cache.plans = plans->stats();
  if (selections) result.plan_cache.selections = selections->stats();
  return result;
}

PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& cfg) {
  Rng build_rng(cfg.seed);
  MarkovSource source(cfg.source, build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  // Deterministic initial state.
  source.teleport(0);
  return run_prefetch_cache(cfg, source, walk_rng);
}

PrefetchCacheResult run_prefetch_cache_sized(
    const SizedExperimentConfig& cfg) {
  SKP_REQUIRE(cfg.capacity > 0.0, "capacity must be positive");
  Rng build_rng(cfg.seed);
  MarkovSource source(cfg.source, build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  const std::size_t n = source.n_states();

  std::vector<double> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = cfg.size_per_r > 0.0
                   ? cfg.size_per_r *
                         source.retrieval_time(static_cast<ItemId>(i))
                   : build_rng.uniform(cfg.size_lo, cfg.size_hi);
  }

  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  ecfg.arbitration.sub = cfg.sub;
  ecfg.arbitration.strict_ties = cfg.strict_ties;
  ecfg.evaluate_plan_g = false;  // as in the slot loop
  const PrefetchEngine engine(ecfg);

  SizedCache cache(sizes, cfg.capacity);
  FreqTracker freq(n);
  std::vector<char> unused_prefetch(n, 0);

  // Allocation-free request loop: borrowed views + recycled buffers, as in
  // the slot-cache loop above; memoization keyed by the SizedCache
  // fingerprint (oracle rows, so the canonical table always applies —
  // LFU/DS frequency context is generation-bumped as in the slot loop).
  PlanScratch scratch;
  PrefetchPlan plan;
  // As in the slot loop: under LFU/DS the plan tier's generation would
  // bump after every request, so the tier can never hit — skip it.
  const bool volatile_plans = cfg.sub != SubArbitration::None;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  std::optional<CanonicalOrderTable> canon;
  if (cfg.use_plan_cache) {
    if (!volatile_plans) {
      plans.emplace(engine.config_digest(), cfg.plan_cache_capacity,
                    /*doorkeeper=*/true);
    }
    selections.emplace(engine.config_digest(), cfg.plan_cache_capacity);
    canon.emplace(n);
  }

  PrefetchCacheResult result;
  auto& m = result.metrics;
  std::size_t state = source.current_state();

  for (std::size_t req = 0; req < cfg.requests; ++req) {
    const bool counted = req >= cfg.warmup;
    const InstanceView inst = source.view_at(state);
    const auto next = static_cast<ItemId>(source.step(walk_rng));
    std::optional<ItemId> oracle;
    if (cfg.policy == PrefetchPolicy::Perfect) oracle = next;

    PlanMemo memo;
    memo.plans = plans ? &*plans : nullptr;
    memo.selections = selections ? &*selections : nullptr;
    memo.canon = canon ? &*canon : nullptr;
    memo.state_key = state;
    engine.plan_with_sized_cache_cached(inst, cache, &freq, memo, scratch,
                                        plan, oracle,
                                        source.successors(state));

    // Realized access time against the pre-plan cache (computed before the
    // plan executes; see the slot loop).
    const double T = realized_access_time_cached(
        inst, plan.fetch, plan.evict, cache.presence(), next);

    for (const ItemId d : plan.evict) {
      if (unused_prefetch[InstanceView::idx(d)]) {
        if (counted) ++m.wasted_prefetches;
        unused_prefetch[InstanceView::idx(d)] = 0;
      }
      cache.erase(d);
    }
    for (const ItemId f : plan.fetch) {
      cache.insert(f);
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
      if (T > source.viewing_time(state)) ++result.over_viewing_time;
    }

    freq.record(next);
    unused_prefetch[InstanceView::idx(next)] = 0;
    if (!cache.contains(next)) {
      if (counted) {
        ++m.demand_fetches;
        m.network_time += source.retrieval_time(next);
        m.demand_network_time += source.retrieval_time(next);
      }
      if (cache.cacheable(next)) {
        const InstanceView next_inst =
            source.view_at(static_cast<std::size_t>(next));
        gather_victims_by_density_into(next_inst, cache, &freq,
                                       ecfg.arbitration, cache.size_of(next),
                                       scratch.pool, scratch.victims);
        SKP_ASSERT(scratch.victims.ok);
        for (const ItemId d : scratch.victims.victims) {
          if (unused_prefetch[InstanceView::idx(d)]) {
            if (counted) ++m.wasted_prefetches;
            unused_prefetch[InstanceView::idx(d)] = 0;
          }
          cache.erase(d);
        }
        cache.insert(next);
      }
      // Items larger than the whole cache are served uncached.
    }
    state = static_cast<std::size_t>(next);
  }
  if (plans) result.plan_cache.plans = plans->stats();
  if (selections) result.plan_cache.selections = selections->stats();
  return result;
}

}  // namespace skp
