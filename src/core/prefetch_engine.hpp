// The prefetch engine: policy selection + cache-aware planning (Figure 6).
//
// A PrefetchEngine turns an InstanceView (the current P, r, v — typically
// borrowed from a reused row: a chain state's scattered successors or a
// predictor's output) plus the cache state into a PrefetchPlan: an
// ordered list of items to fetch and the victims they displace.
// Supported selection policies:
//   * None    — never prefetch (the "no prefetch" baseline).
//   * KP      — classic 0/1 knapsack selection (never stretches).
//   * SKP     — the paper's stretch-knapsack selection.
//   * Perfect — oracle: prefetch exactly the item that will be requested
//               (supplied by the simulator; used for the Fig. 5 bound).
//
// With a non-empty cache the engine follows the Figure-6 algorithm:
// solve the (S)KP over N \ C, then admit candidates in descending
// P_f r_f order against minimal-Pr victims (Pr-arbitration), optionally
// tie-breaking victims by LFU or delay-saving profit (sub-arbitration).
//
// Each planner comes in two forms: a convenience overload returning a
// fresh PrefetchPlan, and an allocation-free overload taking a
// PlanScratch (every working buffer) plus an output plan to refill. The
// cache-aware allocation-free forms (*_cached) also consult a PlanMemo
// (core/plan_cache.hpp) for cross-request memoization and per-state
// canonical solve orders; a default PlanMemo plans unmemoized. Both
// forms are bit-identical; sim hot loops use the memoized scratch form
// so paper-scale sweeps (25M planning rounds for Figure 7) never touch
// the allocator and never re-solve a recurring (state, cache) pair.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/sized_cache.hpp"
#include "core/arbitration.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_scratch.hpp"
#include "core/skp_solver.hpp"

namespace skp {

enum class PrefetchPolicy { None, KP, SKP, Perfect };

std::string to_string(PrefetchPolicy policy);
std::string to_string(SubArbitration sub);

struct EngineConfig {
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  DeltaRule delta_rule = DeltaRule::ExactComplement;
  ArbitrationConfig arbitration;
  // Extension (paper Section 6 "further work"): suppress prefetches whose
  // marginal contribution P_f r_f falls below this threshold, trading
  // access improvement for network usage. 0 reproduces the paper.
  double min_profit_threshold = 0.0;
  // Evaluate the cache-aware plan's Eq.-(9) improvement into
  // PrefetchPlan::predicted_g (an O(|cache|) diagnostic per planning
  // round that no decision in the pipeline consumes — Figure 6 commits
  // on local Pr-arbitration tests). Monte-Carlo hot loops turn it off;
  // with false, predicted_g is reported as 0 on cache-aware plans.
  bool evaluate_plan_g = true;
};

// A prefetch plan: exactly the memoized payload fields (see
// core/plan_cache.hpp's StoredPlan for the field semantics — fetch
// order, evictions, the Eq.-9 diagnostic, solver stats). Deriving from
// the stored form keeps the plan cache structurally in sync with the
// plan type by construction.
struct PrefetchPlan : StoredPlan {
  // Resets to the empty plan, keeping vector capacities (hot-path reuse).
  void clear();
};

// 64-bit digest of every EngineConfig field that influences planning.
// A PlanCache is pinned to the digest of the engine that fills it; the
// *_cached planners refuse to consult a cache built for another config.
std::uint64_t engine_config_digest(const EngineConfig& config);

class PrefetchEngine {
 public:
  explicit PrefetchEngine(EngineConfig config)
      : config_(config), digest_(engine_config_digest(config)) {}

  const EngineConfig& config() const noexcept { return config_; }
  std::uint64_t config_digest() const noexcept { return digest_; }

  // Empty-cache planning (Section 3): selects F from the full catalog.
  // `oracle_next` feeds the Perfect policy and is ignored otherwise.
  PrefetchPlan plan(InstanceView inst,
                    std::optional<ItemId> oracle_next = std::nullopt) const;
  void plan(InstanceView inst, PlanScratch& scratch, PrefetchPlan& out,
            std::optional<ItemId> oracle_next = std::nullopt) const;

  // Cache-aware planning (Section 5, Figure 6). When the cache has free
  // slots, candidates fill them without arbitration (nothing contests);
  // once full, Pr-arbitration decides. `freq` is required for LFU/DS
  // sub-arbitration.
  // `positive_hint` (taken by the *_cached forms below), when engaged,
  // must list (in ascending id order) every item with P_i > 0 — e.g. a
  // Markov source's successor list or a predictor's filtered support.
  // The candidate filter then scans those entries instead of the whole
  // catalog; entries with P_i == 0 are permitted and skipped, so any
  // ascending superset of the support is valid. An engaged EMPTY hint
  // is trusted too: the row has no positive entry, so the plan is the
  // cleared plan at no O(n) cost. std::nullopt means "no hint" (e.g. a
  // lookahead blend) and scans the catalog. The result is identical to
  // the unhinted call.
  // `eviction_order` (the trailing argument of plan_with_cache_cached),
  // when engaged, must list every cached item exactly once in descending
  // (sub score, id) order: LFU's freq_i or DS's freq_i * r_i, read from
  // `freq` and inst.r (descending id without sub-arbitration) — the order
  // a ResidentSet keeps for LFU/DS, whose back holds the next victims.
  // Admission then walks it from the back and takes zero-Pr residents
  // until every remaining candidate has a victim, ranking the positive-Pr
  // residents it passed only if the walk runs dry, so it reads a few
  // entries instead of every resident. The order is trusted like the
  // positive hint (SKP_ASSERT builds check the victims against a ranking
  // of the whole cache); std::nullopt ranks the cache. The result is
  // identical to the call without it.
  PrefetchPlan plan_with_cache(InstanceView inst, const SlotCache& cache,
                               const FreqTracker* freq,
                               std::optional<ItemId> oracle_next
                               = std::nullopt) const;

  // Size-aware planning (extension; DESIGN.md D6 / paper Section 6): the
  // Figure-6 loop generalized to heterogeneous item sizes. Each candidate
  // (descending P_f r_f) gathers victims by ascending Pr *density* until
  // it fits and is admitted only if P_f r_f beats the total Pr it
  // displaces (Figure-6 tie semantics apply). Unlike the slot planner,
  // `evict` here is the flat victim set — |evict| generally differs from
  // |fetch|.
  PrefetchPlan plan_with_sized_cache(InstanceView inst,
                                     const SizedCache& cache,
                                     const FreqTracker* freq,
                                     std::optional<ItemId> oracle_next
                                     = std::nullopt) const;

  // ---- Memoized planning (core/plan_cache.hpp) --------------------------
  // Each *_cached overload consults memo.plans (completed plans, keyed by
  // state + cache fingerprint) before running the cache-aware pipeline
  // above — a hit copies the stored plan into `out` and solves nothing.
  // On a plan-tier miss, memo.selections (keyed by state + candidate-set
  // fingerprint) can still replay the solver stage, so only the cheap
  // Figure-6 admission runs; the selection tier is deliberately blind to
  // the full cache set and to LFU/DS frequencies, which the solve does
  // not read. When memo.canon is set and a non-empty positive hint
  // identifies the support, even a full miss skips the per-solve Eq.-5
  // sort by filtering the precomputed per-state canonical order against
  // the cache. A default PlanMemo runs the plain pipeline. Results are
  // bit-identical either way.
  //
  // Memoization requires the stored value to be a pure function of its
  // key: the caller must bump memo.plans' generation whenever planning
  // context outside (state_key, cache contents) changes, and
  // memo.selections' whenever (P, r, v) for a state_key changes
  // (frequencies never reach the solver). make_memo_tiers builds no
  // tier a per-request context change would retire: none for learned
  // rows, no plan tier under LFU/DS. None-policy plans are trivially
  // empty and Perfect-policy plans depend on the oracle item, so both
  // bypass memoization entirely (consulting it would cost more than
  // planning).
  void plan_with_cache_cached(InstanceView inst, const SlotCache& cache,
                              const FreqTracker* freq, const PlanMemo& memo,
                              PlanScratch& scratch, PrefetchPlan& out,
                              std::optional<ItemId> oracle_next
                              = std::nullopt,
                              std::optional<std::span<const ItemId>>
                                  positive_hint = std::nullopt,
                              std::optional<std::span<const ItemId>>
                                  eviction_order = std::nullopt) const;
  void plan_with_sized_cache_cached(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const PlanMemo& memo,
                                    PlanScratch& scratch, PrefetchPlan& out,
                                    std::optional<ItemId> oracle_next
                                    = std::nullopt,
                                    std::optional<std::span<const ItemId>>
                                        positive_hint = std::nullopt) const;

 private:
  // Runs the configured selector over `candidates`, refilling `out` with
  // the ordered F (solver buffers from `scratch`). `candidates_canonical`
  // promises the candidates are already in canonical (Eq. 5) order, so
  // the solvers skip their sort; `suffix_prob`, when non-empty, is the
  // matching precomputed Figure-3 tail-sum row.
  void select_into(InstanceView inst, std::span<const ItemId> candidates,
                   std::optional<ItemId> oracle_next, PlanScratch& scratch,
                   PrefetchPlan& out, bool candidates_canonical = false,
                   std::span<const double> suffix_prob = {}) const;

  // Selector stage over the staged candidates, replaying memo.selections
  // when it can (see the *_cached contract above). `candidates_fp`, when
  // engaged, is the caller-precomputed Zobrist XOR of scratch.candidates
  // (e.g. derived from a CanonicalOrderTable row); otherwise it is
  // computed here.
  void select_memoized(InstanceView inst, const PlanMemo& memo,
                       std::optional<ItemId> oracle_next,
                       PlanScratch& scratch, PrefetchPlan& out,
                       bool candidates_canonical,
                       std::span<const double> suffix_prob,
                       std::optional<std::uint64_t> candidates_fp
                       = std::nullopt) const;

  // The memoized pipeline behind both *_cached planners: plan-tier
  // lookup, candidate staging, memoized selection, `admit()`, plan-tier
  // store. `skip(id)` is the cached/uncacheable candidate predicate.
  template <typename Cache, typename SkipFn, typename AdmitFn>
  void plan_memoized(InstanceView inst, const Cache& cache, SkipFn skip,
                     AdmitFn admit, const PlanMemo& memo,
                     PlanScratch& scratch, PrefetchPlan& out,
                     std::optional<ItemId> oracle_next,
                     std::optional<std::span<const ItemId>> positive_hint)
      const;

  // The Figure-6 admission pipelines, consuming the selector's proposal
  // in `out` (select_into / select_memoized must have run).
  void admit_slot_into(InstanceView inst, const SlotCache& cache,
                       const FreqTracker* freq,
                       std::optional<std::span<const ItemId>> eviction_order,
                       PlanScratch& scratch, PrefetchPlan& out) const;
  void admit_sized_into(InstanceView inst, const SizedCache& cache,
                        const FreqTracker* freq, PlanScratch& scratch,
                        PrefetchPlan& out) const;

  // True when memoization applies under the current policy (None plans
  // trivially, Perfect depends on the oracle item).
  bool memoizable_policy() const noexcept {
    return config_.policy != PrefetchPolicy::None &&
           config_.policy != PrefetchPolicy::Perfect;
  }

  EngineConfig config_;
  std::uint64_t digest_;
};

}  // namespace skp
