#include "sim/prefetch_cache.hpp"

#include <cmath>
#include <optional>
#include <type_traits>

#include "core/access_model.hpp"
#include "core/lookahead.hpp"
#include "sim/grounded.hpp"
#include "sim/resident_set.hpp"
#include "sim/trace_replay.hpp"
#include "workload/markov_source.hpp"

namespace skp {

namespace {

// Markov1's Laplace smoothing in the Monte-Carlo drivers.
constexpr double kMonteCarloLaplace = 0.05;
// Per-step weight decay of a lookahead blend.
constexpr double kLookaheadDecay = 0.5;

// What feeds the request loop: the Markov walk of `chain` drawn from
// `walk` (redrawn every `drift_period` requests when nonzero), or the
// recorded (item, v) sequence of `trace`.
struct RequestSource {
  MarkovSource* chain = nullptr;
  Rng* walk = nullptr;
  std::size_t drift_period = 0;
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
// filter), the lookahead blend over `horizon` steps, or the learned
// filtered row (hinted by its support).
template <typename Cache>
SimResult run_requests(const SimSpec& spec, const RequestSource& src,
                       Cache cache, std::size_t horizon) {
  const std::span<const double> r = src.r();
  const std::size_t n = r.size();
  const PrefetchEngine engine(engine_config(spec));
  const std::unique_ptr<Predictor> predictor =
      make_predictor(spec.predictor, n, kMonteCarloLaplace);
  ResidentSet<Cache> book(std::move(cache), r, engine.config().arbitration);
  MemoTiers tiers = make_memo_tiers(
      spec.use_plan_cache, spec.plan_cache_capacity, engine.config_digest(),
      predictor != nullptr, spec.sub, horizon <= 1 ? n : 0);

  // The loop runs allocation-free: the instance is a borrowed view
  // (source row / predictor buffer), and `scratch`/`plan` recycle every
  // planning buffer across requests. A predictor's filtered planning row
  // and its support live apart from scratch.P, which takes the
  // lookahead blend or the unfiltered demand-victim row.
  PlanScratch scratch;
  PrefetchPlan plan;
  std::vector<double> learned_row;
  std::vector<ItemId> learned_support;

  SimResult result;
  // Phase-shift stream, derived from the spec seed (not from the walk,
  // so drifting and static runs share the walk stream between
  // changepoints).
  Rng drift_rng = Rng(spec.seed).split(kPrefetchCacheDriftSalt);
  const std::size_t requests = src.trace ? src.trace->size() : spec.requests;

  std::size_t state = src.chain ? src.chain->current_state() : 0;
  // A walk's predictor sees the start state; a trace has none.
  if (predictor && src.chain) predictor->observe(static_cast<ItemId>(state));

  for (std::size_t req = 0; req < requests; ++req) {
    SimMetrics* const m = req >= spec.warmup ? &result.metrics : nullptr;
    if (src.drift_period != 0 && req != 0 && req % src.drift_period == 0) {
      // Changepoint: the rows every memoized plan, solver selection and
      // canonical order was computed from are gone.
      src.chain->redraw_transitions(to_markov_config(spec.workload),
                                    drift_rng);
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
    if (spec.policy == PrefetchPolicy::Perfect) oracle = next;

    InstanceView inst;
    std::optional<std::span<const ItemId>> hint;  // nullopt: no hint
    if (predictor) {
      predictor->predict_filtered_into(spec.predictor_min_prob, learned_row,
                                       learned_support);
      inst = InstanceView(learned_row, r, v);
      hint = learned_support;
    } else if (horizon > 1) {
      // Blended rows widen the support, so no hint.
      horizon_probabilities_into(src.chain->chain(), state, horizon,
                                 kLookaheadDecay, scratch.P);
      inst = InstanceView(scratch.P, r, v);
    } else {
      inst = src.chain->view_at(state);
      hint = src.chain->successors(state);
    }
    const PlanMemo memo = tiers.memo(state);
    if constexpr (std::is_same_v<Cache, SlotCache>) {
      engine.plan_with_cache_cached(inst, book.cache(), &book.freq(), memo,
                                    scratch, plan, oracle, hint,
                                    book.eviction_order());
    } else {
      engine.plan_with_sized_cache_cached(inst, book.cache(), &book.freq(),
                                          memo, scratch, plan, oracle, hint);
    }

    // Realized access time (Section 5 cases) against the pre-plan cache:
    // computed before the plan mutates the cache, which is exactly the
    // "cache before" snapshot the model asks for.
    const double T = realized_access_time_cached(
        inst, plan.fetch, plan.evict, book.cache().presence(), next);
    book.execute(plan, m);
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
      book.admit_demand(next, m, [&] {
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

// The trace_replay driver's one validation list.
void require_replayable(const SimSpec& spec) {
  require_read_sections(spec, SimDriverKind::TraceReplay);
  SKP_REQUIRE(spec.predictor != PredictorKind::Oracle,
              "trace replay has no oracle probabilities");
  SKP_REQUIRE(spec.cache_size >= 1, "cache_size must be >= 1");
}

// A learned replay builds no memo tier, so its result holds the metrics
// and the over-viewing count.
SimResult replay_unchecked(const Trace& trace, const SimSpec& spec) {
  return run_requests(spec, RequestSource{nullptr, nullptr, 0, &trace},
                      SlotCache(trace.n_items(), spec.cache_size), 1);
}

}  // namespace

SimResult run_prefetch_cache(const SimSpec& spec) {
  return run_prefetch_cache_lookahead(spec, 1);
}

// The prefetch_cache driver: its one validation list and stream layout.
SimResult run_prefetch_cache_lookahead(const SimSpec& spec,
                                       std::size_t horizon) {
  require_read_sections(spec, SimDriverKind::PrefetchCache);
  const SimWorkload& w = spec.workload;
  SKP_REQUIRE(horizon >= 1, "lookahead horizon must be >= 1");
  SKP_REQUIRE(spec.predictor == PredictorKind::Oracle || horizon == 1,
              "lookahead_horizon > 1 blends oracle rows; a learned "
              "predictor plans on its own row");
  const bool sized = spec.sized_capacity != 0.0;
  if (sized) {
    SKP_REQUIRE(w.kind == SimWorkloadKind::Markov,
                "the sized-cache experiment runs the Markov workload");
    SKP_REQUIRE(spec.predictor == PredictorKind::Oracle,
                "the sized-cache experiment is oracle-mode only");
    SKP_REQUIRE(spec.min_profit_threshold == 0.0,
                "the sized-cache experiment does not support "
                "min_profit_threshold");
    SKP_REQUIRE(horizon == 1,
                "the sized-cache experiment plans on one-step rows");
    SKP_REQUIRE(spec.sized_capacity > 0.0,
                "sized_capacity = " << spec.sized_capacity
                                    << " must be positive");
    SKP_REQUIRE(spec.size_per_r >= 0.0 && std::isfinite(spec.size_per_r),
                "size_per_r = " << spec.size_per_r
                                << " must be > 0 (sizes size_per_r * r_i) "
                                   "or 0 (sizes drawn U[size_lo, size_hi])");
    if (spec.size_per_r == 0.0) {
      SKP_REQUIRE(spec.size_lo > 0.0,
                  "size_lo = " << spec.size_lo << " must be positive");
      SKP_REQUIRE(spec.size_lo <= spec.size_hi && std::isfinite(spec.size_hi),
                  "size_hi = " << spec.size_hi
                               << " must be finite and >= size_lo = "
                               << spec.size_lo);
    }
  } else {
    SKP_REQUIRE(spec.cache_size >= 1, "cache_size must be >= 1");
    const SimSpec defaults;
    SKP_REQUIRE(spec.size_per_r == defaults.size_per_r &&
                    spec.size_lo == defaults.size_lo &&
                    spec.size_hi == defaults.size_hi,
                "a slot cache has no item sizes; size_per_r/size_lo/"
                "size_hi apply with a nonzero sized_capacity");
    SKP_REQUIRE(w.kind == SimWorkloadKind::Markov ||
                    w.kind == SimWorkloadKind::MarkovDrift ||
                    w.kind == SimWorkloadKind::Zipf ||
                    w.kind == SimWorkloadKind::Adversarial,
                "prefetch_cache supports markov | markov_drift | zipf | "
                "adversarial workloads");
  }

  // Stream layout: the chain from Rng(seed), the walk from that stream's
  // kPrefetchCacheWalkSalt child, then a sized run's item sizes from the
  // chain's stream. The walk starts in state 0.
  Rng build(spec.seed);
  MarkovSource source(make_workload_chain(w, build));
  Rng walk = build.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  const RequestSource src{
      &source, &walk,
      w.kind == SimWorkloadKind::MarkovDrift ? w.drift_period : 0, nullptr};
  if (!sized) {
    return run_requests(spec, src,
                        SlotCache(source.n_states(), spec.cache_size),
                        horizon);
  }
  std::vector<double> sizes(source.n_states());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = spec.size_per_r > 0.0
                   ? spec.size_per_r *
                         source.retrieval_time(static_cast<ItemId>(i))
                   : build.uniform(spec.size_lo, spec.size_hi);
  }
  return run_requests(spec, src,
                      SizedCache(std::move(sizes), spec.sized_capacity),
                      horizon);
}

SimResult run_trace_replay(const SimSpec& spec) {
  require_replayable(spec);
  Rng root(spec.seed);
  Rng build = root.split(1);
  Rng walk = root.split(2);
  const MaterializedWorkload w =
      materialize_workload(spec.workload, spec.requests, build, walk);
  Trace trace(w.n_items, w.retrieval_times);
  for (const TraceRecord& rec : w.cycles) {
    trace.append(rec.item, rec.viewing_time);
  }
  return replay_unchecked(trace, spec);
}

SimResult replay_trace(const Trace& trace, const SimSpec& spec) {
  SKP_REQUIRE(!trace.empty(), "cannot replay an empty trace");
  require_replayable(spec);
  return replay_unchecked(trace, spec);
}

}  // namespace skp
