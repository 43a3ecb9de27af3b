#include "sim/prefetch_cache.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"
#include "core/lookahead.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "util/thread_pool.hpp"

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

namespace {

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

// Pipelined single-sim execution (PrefetchCacheConfig::pipeline_workers).
//
// The Markov walk is a pure function of (chain structure, walk stream), so
// the whole request script is materialized up front from clones of the
// source and walk Rng — the main loop then samples exactly the states the
// script predicts. Workers run ahead of the main loop: the job for
// request j is enqueued when request j' < j finishes, carrying a snapshot
// of the cache presence bitmap at that moment (exact for j = j' + 1,
// speculative beyond). A worker pre-solves the SKP selection stage for
// (script[j], snapshot) via PrefetchEngine::speculate_selection; the main
// loop validates the speculation against the LIVE candidate fingerprint
// inside select_memoized before adopting it, so a snapshot voided by an
// intervening cache mutation is silently discarded and the solve runs
// inline. The speculated plan carries the solver's own stats, and the
// memo-tier find/insert sequence is untouched — every simulator counter
// AND every plan-cache counter is bit-identical to the solo loop.
class SpeculationPipeline {
 public:
  SpeculationPipeline(const PrefetchCacheConfig& cfg,
                      const MarkovSource& source, const Rng& walk_rng,
                      const PrefetchEngine& engine)
      : engine_(engine),
        source_(source),  // worker-side copy: rows are static (no drift)
        jobs_(cfg.pipeline_workers + 1) {
    MarkovSource walker = source;
    Rng rng = walk_rng;
    script_.reserve(cfg.requests);
    script_.push_back(walker.current_state());
    for (std::size_t i = 1; i < cfg.requests; ++i) {
      script_.push_back(walker.step(rng));
    }
    workers_.reserve(cfg.pipeline_workers);
    for (std::size_t w = 0; w < cfg.pipeline_workers; ++w) {
      workers_.emplace_back(source_.n_states());
    }
    pool_.emplace(cfg.pipeline_workers);
    for (std::size_t w = 0; w < cfg.pipeline_workers; ++w) {
      pool_->submit([this, w] { worker_main(w); });
    }
  }

  ~SpeculationPipeline() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    pool_.reset();  // joins the worker loops
  }

  // Claims the speculation for request `req` (nullptr when none applies):
  // a finished job hands back its result, an in-flight job is briefly
  // waited for, and a still-queued job is cancelled — solving inline
  // beats waiting for a worker that has not even started.
  const SpeculativeSelection* take(std::size_t req) {
    std::unique_lock<std::mutex> lk(mu_);
    Job& job = jobs_[req % jobs_.size()];
    if (job.status == kFree || job.index != req) return nullptr;
    if (job.status == kQueued) {
      job.status = kFree;
      return nullptr;
    }
    while (job.status != kDone) done_cv_.wait(lk);
    job.status = kFree;
    // The slot is only re-enqueued by refill(), which the main loop calls
    // after consuming this result — the pointer stays valid until then.
    return &job.result;
  }

  // Called after request `done_req` finished mutating the cache: tops the
  // job window back up to one job per worker slot, snapshotting the
  // current presence bitmap for each.
  void refill(std::size_t done_req, std::span<const char> present) {
    bool added = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const std::size_t hi =
          std::min(done_req + jobs_.size(), script_.size() - 1);
      for (; next_enqueue_ <= hi; ++next_enqueue_) {
        Job& job = jobs_[next_enqueue_ % jobs_.size()];
        SKP_ASSERT(job.status == kFree);
        job.index = next_enqueue_;
        job.state = script_[next_enqueue_];
        job.present.assign(present.begin(), present.end());
        job.status = kQueued;
        added = true;
      }
    }
    if (added) cv_.notify_all();
  }

 private:
  enum Status : int { kFree, kQueued, kRunning, kDone };

  struct Job {
    std::size_t index = 0;
    std::size_t state = 0;
    std::vector<char> present;
    SpeculativeSelection result;
    int status = kFree;
  };

  // Per-worker solve state: each worker keeps its own canonical-order
  // table (rows are rebuilt redundantly across workers, but never shared
  // mutable) and scratch.
  struct WorkerState {
    explicit WorkerState(std::size_t n) : canon(n) {}
    CanonicalOrderTable canon;
    PlanScratch scratch;
  };

  void worker_main(std::size_t wid) {
    WorkerState& w = workers_[wid];
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      Job* job = nullptr;
      for (Job& j : jobs_) {  // oldest queued job first
        if (j.status == kQueued && (job == nullptr || j.index < job->index)) {
          job = &j;
        }
      }
      if (job == nullptr) {
        if (stop_) return;
        cv_.wait(lk);
        continue;
      }
      job->status = kRunning;
      lk.unlock();
      const InstanceView inst = source_.view_at(job->state);
      const CanonicalOrderTable::Row row =
          w.canon.row(job->state, inst, source_.successors(job->state));
      engine_.speculate_selection(inst, job->state, row, job->present,
                                  w.scratch, job->result);
      lk.lock();
      job->status = kDone;
      done_cv_.notify_all();
    }
  }

  const PrefetchEngine& engine_;
  MarkovSource source_;
  std::vector<std::size_t> script_;  // script_[i] = state at request i
  std::vector<Job> jobs_;            // slot for index i: i % jobs_.size()
  std::vector<WorkerState> workers_;
  std::size_t next_enqueue_ = 1;  // request 0 plans before any job exists
  std::mutex mu_;
  std::condition_variable cv_;       // queued-work signal (workers wait)
  std::condition_variable done_cv_;  // completion signal (take() waits)
  bool stop_ = false;
  std::optional<ThreadPool> pool_;   // last: joins before members die
};

}  // namespace

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

  // Pipelined execution (see SpeculationPipeline above): restricted to
  // the configuration where the request script is a pure function of the
  // inputs captured at this point — oracle rows (static, no predictor or
  // lookahead blend), no drift, SKP with the memoized fast path on.
  std::optional<SpeculationPipeline> pipe;
  if (cfg.pipeline_workers > 0) {
    SKP_REQUIRE(cfg.predictor == PredictorKind::Oracle &&
                    cfg.lookahead_horizon <= 1 && cfg.drift_period == 0 &&
                    cfg.use_plan_cache &&
                    cfg.policy == PrefetchPolicy::SKP,
                "pipeline_workers requires the oracle SKP fast path "
                "(no predictor/lookahead/drift, plan cache on)");
    pipe.emplace(cfg, source, walk_rng, engine);
  }

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
    if (pipe) memo.speculative = pipe->take(req);
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

    // All cache mutations for this request are done: top the speculation
    // window back up against the now-final presence bitmap.
    if (pipe) pipe->refill(req, cache.presence());

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

namespace {

// One lane of run_prefetch_cache_batch: the per-experiment state the solo
// loop keeps on its stack, boxed so k lanes can advance in lockstep.
struct BatchLane {
  BatchLane(const PrefetchCacheConfig& c, std::size_t n,
            PrefetchCacheResult* res)
      : cfg(c), cache(n, c.cache_size), freq(n), unused_prefetch(n, 0),
        result(res) {
    EngineConfig ecfg;
    ecfg.policy = c.policy;
    ecfg.delta_rule = c.delta_rule;
    ecfg.arbitration.sub = c.sub;
    ecfg.arbitration.strict_ties = c.strict_ties;
    ecfg.min_profit_threshold = c.min_profit_threshold;
    ecfg.evaluate_plan_g = false;  // as in the solo loop
    engine.emplace(ecfg);
    // Tier setup mirrors the solo loop (oracle mode): the plan tier is
    // skipped when LFU/DS would bump its generation every request.
    const bool volatile_plans = c.sub != SubArbitration::None;
    if (c.use_plan_cache) {
      if (!volatile_plans) {
        plans.emplace(engine->config_digest(), c.plan_cache_capacity,
                      /*doorkeeper=*/true);
      }
      selections.emplace(engine->config_digest(), c.plan_cache_capacity);
    }
  }

  const PrefetchCacheConfig& cfg;
  std::optional<PrefetchEngine> engine;
  SlotCache cache;
  FreqTracker freq;
  std::vector<char> unused_prefetch;
  PlanScratch scratch;
  PrefetchPlan plan;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  PrefetchCacheResult* result;
};

}  // namespace

std::vector<PrefetchCacheResult> run_prefetch_cache_batch(
    std::span<const PrefetchCacheConfig> configs) {
  std::vector<PrefetchCacheResult> results(configs.size());
  if (configs.empty()) return results;
  const PrefetchCacheConfig& c0 = configs.front();
  for (const PrefetchCacheConfig& c : configs) {
    SKP_REQUIRE(c.cache_size >= 1, "cache_size must be >= 1");
    SKP_REQUIRE(c.predictor == PredictorKind::Oracle &&
                    c.lookahead_horizon <= 1,
                "batched execution requires oracle one-step lanes");
    SKP_REQUIRE(c.pipeline_workers == 0,
                "pipelined and batched execution do not compose");
    SKP_REQUIRE(c.source == c0.source && c.seed == c0.seed &&
                    c.requests == c0.requests &&
                    c.drift_period == c0.drift_period,
                "batch lanes must share the workload "
                "(source/seed/requests/drift)");
  }

  // Shared workload: built exactly as the solo entry point builds it, so
  // every lane sees the request stream its solo run would see.
  Rng build_rng(c0.seed);
  MarkovSource source(c0.source, build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  const std::size_t n = source.n_states();
  Rng drift_rng = Rng(c0.seed).split(kPrefetchCacheDriftSalt);

  std::deque<BatchLane> lanes;
  bool any_plan_cache = false;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    lanes.emplace_back(configs[i], n, &results[i]);
    any_plan_cache = any_plan_cache || configs[i].use_plan_cache;
  }
  // The canonical-order table depends only on the (shared) source rows,
  // so one table serves every memoized lane — same row contents as each
  // lane's solo table, built once instead of once per lane.
  std::optional<CanonicalOrderTable> canon;
  if (any_plan_cache) canon.emplace(n);

  // Engine-level batching applies to memoized lanes sharing an engine
  // config: group them, keep a persistent PlanBatchLane row per group
  // (stable pointers; only state_key changes per request). Everything
  // else plans solo — same results, just without the shared setup.
  struct Group {
    const PrefetchEngine* engine;
    bool perfect;
    std::vector<PrefetchEngine::PlanBatchLane> rows;
  };
  std::vector<Group> groups;
  std::vector<BatchLane*> solo;
  for (BatchLane& lane : lanes) {
    if (!lane.cfg.use_plan_cache) {
      solo.push_back(&lane);
      continue;
    }
    PrefetchEngine::PlanBatchLane row;
    row.cache = &lane.cache;
    row.freq = &lane.freq;
    row.memo.plans = lane.plans ? &*lane.plans : nullptr;
    row.memo.selections = lane.selections ? &*lane.selections : nullptr;
    row.memo.canon = &*canon;
    row.scratch = &lane.scratch;
    row.out = &lane.plan;
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.engine->config_digest() == lane.engine->config_digest()) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({&*lane.engine,
                        lane.cfg.policy == PrefetchPolicy::Perfect,
                        {}});
      group = &groups.back();
    }
    group->rows.push_back(row);
  }

  std::size_t state = source.current_state();
  for (std::size_t req = 0; req < c0.requests; ++req) {
    if (c0.drift_period != 0 && req != 0 && req % c0.drift_period == 0) {
      source.redraw_transitions(c0.source, drift_rng);
      for (BatchLane& lane : lanes) {
        if (lane.plans) lane.plans->bump_generation();
        if (lane.selections) lane.selections->bump_generation();
      }
      if (canon) canon->invalidate_all();
    }

    const InstanceView inst = source.view_at(state);
    const std::span<const ItemId> positive_hint = source.successors(state);
    const auto next = static_cast<ItemId>(source.step(walk_rng));

    for (Group& g : groups) {
      for (PrefetchEngine::PlanBatchLane& row : g.rows) {
        row.memo.state_key = state;
      }
      g.engine->plan_with_cache_batch(
          inst, g.rows,
          g.perfect ? std::optional<ItemId>(next) : std::nullopt,
          positive_hint);
    }
    for (BatchLane* lane : solo) {
      std::optional<ItemId> oracle;
      if (lane->cfg.policy == PrefetchPolicy::Perfect) oracle = next;
      PlanMemo memo;
      memo.state_key = state;
      lane->engine->plan_with_cache_cached(inst, lane->cache, &lane->freq,
                                           memo, lane->scratch, lane->plan,
                                           oracle, positive_hint);
    }

    // Per-lane bookkeeping: the solo loop's post-plan block, verbatim
    // (oracle mode, so without the predictor branches).
    for (BatchLane& lane : lanes) {
      const bool counted = req >= lane.cfg.warmup;
      auto& m = lane.result->metrics;
      const PrefetchPlan& plan = lane.plan;
      SlotCache& cache = lane.cache;
      const double T = realized_access_time_cached(
          inst, plan.fetch, plan.evict, cache.presence(), next);

      std::size_t victim_idx = 0;
      for (std::size_t k = 0; k < plan.fetch.size(); ++k) {
        const ItemId f = plan.fetch[k];
        if (cache.full()) {
          SKP_ASSERT(victim_idx < plan.evict.size());
          const ItemId d = plan.evict[victim_idx++];
          if (lane.unused_prefetch[InstanceView::idx(d)]) {
            if (counted) ++m.wasted_prefetches;
            lane.unused_prefetch[InstanceView::idx(d)] = 0;
          }
          cache.replace(d, f);
        } else {
          cache.insert(f);
        }
        lane.unused_prefetch[InstanceView::idx(f)] = 1;
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
        if (T > source.viewing_time(state)) ++lane.result->over_viewing_time;
      }

      lane.freq.record(next);
      lane.unused_prefetch[InstanceView::idx(next)] = 0;

      if (!cache.contains(next)) {
        if (counted) {
          ++m.demand_fetches;
          m.network_time += source.retrieval_time(next);
          m.demand_network_time += source.retrieval_time(next);
        }
        if (cache.full()) {
          const InstanceView next_inst =
              source.view_at(static_cast<std::size_t>(next));
          const ItemId d =
              choose_victim(next_inst, cache.contents(), &lane.freq,
                            lane.engine->config().arbitration);
          if (lane.unused_prefetch[InstanceView::idx(d)]) {
            if (counted) ++m.wasted_prefetches;
            lane.unused_prefetch[InstanceView::idx(d)] = 0;
          }
          cache.replace(d, next);
        } else {
          cache.insert(next);
        }
      }
    }

    state = static_cast<std::size_t>(next);
  }

  for (BatchLane& lane : lanes) {
    if (lane.plans) lane.result->plan_cache.plans = lane.plans->stats();
    if (lane.selections) {
      lane.result->plan_cache.selections = lane.selections->stats();
    }
  }
  return results;
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
