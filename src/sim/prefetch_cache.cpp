#include "sim/prefetch_cache.hpp"

#include <optional>
#include <type_traits>

#include "core/access_model.hpp"
#include "core/lookahead.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "sim/resident_set.hpp"
#include "sim/trace_replay.hpp"

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

std::unique_ptr<Predictor> make_predictor(PredictorKind kind, std::size_t n,
                                          double markov1_laplace) {
  switch (kind) {
    case PredictorKind::Oracle: return nullptr;
    case PredictorKind::Markov1:
      return std::make_unique<MarkovPredictor>(n, markov1_laplace);
    case PredictorKind::Ppm:
      return std::make_unique<PpmPredictor>(n, /*order=*/2);
    case PredictorKind::DependencyWindow:
      return std::make_unique<DependencyGraph>(n, /*window=*/2);
    case PredictorKind::Lz78:
      return std::make_unique<Lz78Predictor>(n);
  }
  return nullptr;
}

namespace {

// Markov1's Laplace smoothing in the Monte-Carlo drivers.
constexpr double kMonteCarloLaplace = 0.05;

// What feeds the request loop: the Markov walk of `chain` drawn from
// `walk` (with its drift changepoints), or the recorded (item, v)
// sequence of `trace`.
struct RequestSource {
  MarkovSource* chain = nullptr;
  Rng* walk = nullptr;
  const Trace* trace = nullptr;

  std::span<const double> r() const {
    return chain ? chain->retrieval_times()
                 : std::span<const double>(trace->retrieval_times());
  }
};

// The Section-5 request loop behind every Monte-Carlo entry point. Each
// request plans against the cache (Figure 6), realizes its access time
// against the pre-plan cache, executes the plan, and is then served or
// demand-fetched over a minimal-Pr victim. The planning row is exactly
// one of: the oracle row (its successor list hints the candidate
// filter), the lookahead blend, or the learned filtered row (hinted by
// its support).
template <typename Cache>
PrefetchCacheResult run_requests(const PrefetchCacheConfig& cfg,
                                 const RequestSource& src, Cache cache) {
  const std::span<const double> r = src.r();
  const std::size_t n = r.size();

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

  const std::unique_ptr<Predictor> predictor =
      make_predictor(cfg.predictor, n, kMonteCarloLaplace);
  ResidentSet<Cache> book(std::move(cache));
  MemoTiers tiers = make_memo_tiers(
      cfg.use_plan_cache, cfg.plan_cache_capacity, engine.config_digest(),
      predictor != nullptr, cfg.sub, cfg.lookahead_horizon <= 1 ? n : 0);

  // The loop runs allocation-free: the instance is a borrowed view
  // (source row / predictor buffer), and `scratch`/`plan` recycle every
  // planning buffer across requests. A predictor's filtered planning row
  // and its support live apart from scratch.P, which takes the
  // lookahead blend or the unfiltered demand-victim row.
  PlanScratch scratch;
  PrefetchPlan plan;
  std::vector<double> learned_row;
  std::vector<ItemId> learned_support;

  PrefetchCacheResult result;
  // Phase-shift stream, derived from the config seed (not from the
  // walk, so drifting and static runs share the walk stream between
  // changepoints).
  Rng drift_rng = Rng(cfg.seed).split(kPrefetchCacheDriftSalt);

  std::size_t state = src.chain ? src.chain->current_state() : 0;
  // A walk's predictor sees the start state; a trace has none.
  if (predictor && src.chain) predictor->observe(static_cast<ItemId>(state));

  for (std::size_t req = 0; req < cfg.requests; ++req) {
    SimMetrics* const m = req >= cfg.warmup ? &result.metrics : nullptr;
    if (cfg.drift_period != 0 && req != 0 && req % cfg.drift_period == 0) {
      // Changepoint: the rows every memoized plan, solver selection and
      // canonical order was computed from are gone.
      src.chain->redraw_transitions(cfg.source, drift_rng);
      tiers.invalidate();
    }

    // The request: the walk decides it now, a trace replays it. Only the
    // Perfect oracle may look at it before it is served.
    double v = 0.0;
    ItemId next = kNoItem;
    if (src.chain) {
      v = src.chain->viewing_time(state);
      next = static_cast<ItemId>(src.chain->step(*src.walk));
    } else {
      const TraceRecord& rec = src.trace->records()[req];
      v = rec.viewing_time;
      next = rec.item;
    }
    std::optional<ItemId> oracle;
    if (cfg.policy == PrefetchPolicy::Perfect) oracle = next;

    InstanceView inst;
    std::optional<std::span<const ItemId>> hint;  // nullopt: no hint
    if (predictor) {
      predictor->predict_filtered_into(cfg.predictor_min_prob, learned_row,
                                       learned_support);
      inst = InstanceView(learned_row, r, v);
      hint = learned_support;
    } else if (cfg.lookahead_horizon > 1) {
      // Blended rows widen the support, so no hint.
      horizon_probabilities_into(*src.chain, state, cfg.lookahead_horizon,
                                 cfg.lookahead_decay, scratch.P);
      inst = InstanceView(scratch.P, r, v);
    } else {
      inst = src.chain->view_at(state);
      hint = src.chain->successors(state);
    }
    const PlanMemo memo = tiers.memo(state);
    if constexpr (std::is_same_v<Cache, SlotCache>) {
      engine.plan_with_cache_cached(inst, book.cache(), &book.freq(), memo,
                                    scratch, plan, oracle, hint);
    } else {
      engine.plan_with_sized_cache_cached(inst, book.cache(), &book.freq(),
                                          memo, scratch, plan, oracle, hint);
    }

    // Realized access time (Section 5 cases) against the pre-plan cache:
    // computed before the plan mutates the cache, which is exactly the
    // "cache before" snapshot the model asks for.
    const double T = realized_access_time_cached(
        inst, plan.fetch, plan.evict, book.cache().presence(), next);
    book.execute(plan, r, m);
    if (m) {
      m->solver_nodes += plan.solver_nodes;
      m->access_time.add(T);
      ++m->requests;
      if (T == 0.0) ++m->hits;
      if (T > v) ++result.over_viewing_time;
    }

    // Serve the request: count it, learn it, demand-fetch it on a miss.
    // "Demand-fetched item, however, must have a victim": minimal Pr
    // under the probabilities now in force — the next state's oracle
    // row, or the predictor's unfiltered row after it observed the
    // request.
    book.view(next);
    if (predictor) predictor->observe(next);
    if (!book.cache().contains(next)) {
      book.admit_demand(next, r, ecfg.arbitration, m, [&] {
        if (!predictor) {
          return src.chain->view_at(static_cast<std::size_t>(next));
        }
        predictor->predict_into(scratch.P);
        return InstanceView(scratch.P, r, v);
      });
    }
    state = static_cast<std::size_t>(next);
  }
  result.plan_cache = tiers.stats();
  return result;
}

}  // namespace

PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& cfg,
                                       MarkovSource& source, Rng& walk_rng) {
  SKP_REQUIRE(cfg.cache_size >= 1, "cache_size must be >= 1");
  SKP_REQUIRE(cfg.predictor == PredictorKind::Oracle ||
                  cfg.lookahead_horizon <= 1,
              "lookahead_horizon > 1 blends oracle rows; a learned "
              "predictor plans on its own row");
  return run_requests(cfg, RequestSource{&source, &walk_rng, nullptr},
                      SlotCache(source.n_states(), cfg.cache_size));
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
  // Stream order: the chain, then the walk split, then the sizes.
  Rng build_rng(cfg.seed);
  MarkovSource source(cfg.source, build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  std::vector<double> sizes(source.n_states());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = cfg.size_per_r > 0.0
                   ? cfg.size_per_r *
                         source.retrieval_time(static_cast<ItemId>(i))
                   : build_rng.uniform(cfg.size_lo, cfg.size_hi);
  }

  PrefetchCacheConfig lowered;
  lowered.source = cfg.source;
  lowered.policy = cfg.policy;
  lowered.sub = cfg.sub;
  lowered.delta_rule = cfg.delta_rule;
  lowered.strict_ties = cfg.strict_ties;
  lowered.requests = cfg.requests;
  lowered.warmup = cfg.warmup;
  lowered.seed = cfg.seed;
  lowered.use_plan_cache = cfg.use_plan_cache;
  lowered.plan_cache_capacity = cfg.plan_cache_capacity;
  return run_requests(lowered, RequestSource{&source, &walk_rng, nullptr},
                      SizedCache(std::move(sizes), cfg.capacity));
}

SimMetrics replay_trace(const Trace& trace, const TraceReplayConfig& cfg) {
  SKP_REQUIRE(!trace.empty(), "cannot replay an empty trace");
  SKP_REQUIRE(cfg.cache_size >= 1, "cache_size must be >= 1");
  SKP_REQUIRE(cfg.predictor != PredictorKind::Oracle,
              "trace replay has no oracle probabilities");
  PrefetchCacheConfig lowered;
  lowered.cache_size = cfg.cache_size;
  lowered.policy = cfg.policy;
  lowered.sub = cfg.sub;
  lowered.delta_rule = cfg.delta_rule;
  lowered.predictor = cfg.predictor;
  lowered.predictor_min_prob = cfg.predictor_min_prob;
  lowered.min_profit_threshold = cfg.min_profit_threshold;
  lowered.requests = trace.size();
  lowered.warmup = cfg.warmup;
  return run_requests(lowered, RequestSource{nullptr, nullptr, &trace},
                      SlotCache(trace.n_items(), cfg.cache_size))
      .metrics;
}

}  // namespace skp
