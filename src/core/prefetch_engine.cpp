#include "core/prefetch_engine.hpp"

#include <algorithm>
#include <bit>

#include "cache/zobrist.hpp"
#include "core/access_model.hpp"
#include "core/kp_solver.hpp"
#include "util/rng.hpp"

namespace skp {

std::uint64_t engine_config_digest(const EngineConfig& config) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi, as good a seed as any
  const auto fold = [&h](std::uint64_t x) {
    h = SplitMix64(h ^ x).next();
  };
  fold(static_cast<std::uint64_t>(config.policy));
  fold(static_cast<std::uint64_t>(config.delta_rule));
  fold(static_cast<std::uint64_t>(config.arbitration.sub));
  fold(config.arbitration.strict_ties ? 1 : 0);
  fold(std::bit_cast<std::uint64_t>(config.min_profit_threshold));
  fold(config.max_solver_nodes);
  fold(config.evaluate_plan_g ? 1 : 0);
  return h;
}

std::string to_string(PrefetchPolicy policy) {
  switch (policy) {
    case PrefetchPolicy::None: return "none";
    case PrefetchPolicy::KP: return "KP";
    case PrefetchPolicy::SKP: return "SKP";
    case PrefetchPolicy::Perfect: return "perfect";
  }
  return "?";
}

std::string to_string(SubArbitration sub) {
  switch (sub) {
    case SubArbitration::None: return "none";
    case SubArbitration::LFU: return "LFU";
    case SubArbitration::DS: return "DS";
  }
  return "?";
}

namespace {

// Candidate filter shared by the planners: an item is worth considering
// only if it is not cached, has positive probability, and clears the
// network-usage threshold (extension knob; 0 = paper behaviour). The
// `cached` predicate abstracts over slot and sized caches.
template <typename CachedFn>
void viable_candidates_into(
    InstanceView inst, CachedFn cached, double min_profit,
    std::vector<ItemId>& out,
    std::optional<std::span<const ItemId>> positive_hint = std::nullopt) {
  out.clear();
  if (positive_hint) {
    // Sparse support scan: the hint lists every positive-P item in
    // ascending id order, so iterating it reproduces the catalog scan
    // (an empty hint leaves no candidate).
    for (const ItemId id : *positive_hint) {
      const std::size_t i = InstanceView::idx(id);
      if (inst.P[i] <= 0.0) continue;
      if (cached(id)) continue;
      if (min_profit > 0.0 && inst.P[i] * inst.r[i] < min_profit) continue;
      out.push_back(id);
    }
    return;
  }
  if (min_profit <= 0.0) {  // paper behaviour: no threshold to evaluate
    for (std::size_t i = 0; i < inst.n(); ++i) {
      const auto id = static_cast<ItemId>(i);
      if (inst.P[i] <= 0.0) continue;
      if (cached(id)) continue;
      out.push_back(id);
    }
    return;
  }
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const auto id = static_cast<ItemId>(i);
    if (inst.P[i] <= 0.0) continue;
    if (cached(id)) continue;
    if (inst.P[i] * inst.r[i] < min_profit) continue;
    out.push_back(id);
  }
}

// Sorts the proposal into the Figure-6 admission order: descending
// P_f r_f, ties by canonical order. Keys are staged once per item so the
// comparator reads flat records instead of recomputing the profit (and
// the cross-TU Eq.-5 tie-break) per comparison; ids are unique, so the
// flat (pr desc, P desc, r asc, id asc) order is the same total order.
void profit_order_into(InstanceView inst, std::span<const ItemId> fetch,
                       std::vector<PlanScratch::AdmitKey>& keys,
                       std::vector<ItemId>& out) {
  keys.clear();
  for (const ItemId f : fetch) {
    const std::size_t i = InstanceView::idx(f);
    keys.push_back({inst.P[i] * inst.r[i], inst.P[i], inst.r[i], f});
  }
  std::sort(keys.begin(), keys.end(),
            [](const PlanScratch::AdmitKey& a,
               const PlanScratch::AdmitKey& b) {
              if (a.pr != b.pr) return a.pr > b.pr;
              if (a.P != b.P) return a.P > b.P;
              if (a.r != b.r) return a.r < b.r;
              return a.id < b.id;
            });
  out.clear();
  for (const auto& k : keys) out.push_back(k.id);
}

// Caches every cached item's eviction rank — (Pr, sub-arbitration score,
// id) — for one planning round. The scores are fixed while one plan is
// built, so victim k is simply the k-th smallest rank; admit_slot_into
// partial-sorts the consumable prefix, which matches repeated
// choose_victim + removal bit-for-bit while computing each Pr product
// once instead of once per scan (the fixed-seed equivalence tests pin
// the equality).
void rank_victims(InstanceView inst, std::span<const ItemId> cached,
                  const FreqTracker* freq, const ArbitrationConfig& cfg,
                  PlanScratch& scratch) {
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  std::vector<PlanScratch::VictimRank>& ranked = scratch.ranked;
  ranked.clear();
  for (const ItemId c : cached) {
    const std::size_t ci = InstanceView::idx(c);
    double s = 0.0;
    switch (cfg.sub) {
      case SubArbitration::None: break;
      case SubArbitration::LFU:
        s = freq->frequency(c);
        break;
      case SubArbitration::DS:
        s = freq->delay_saving_profit(c, inst.r[ci]);
        break;
    }
    ranked.push_back({inst.P[ci] * inst.r[ci], s, c});
  }
}

// Eviction order: ascending (Pr, sub score, id) — choose_victim's exact
// tie chain. Ids are unique, so this is a TOTAL order: the k-th victim is
// determined by the order alone, independent of the algorithm that
// extracts it (admit_slot_into partial_sorts the consumable prefix).
bool victim_rank_less(const PlanScratch::VictimRank& a,
                      const PlanScratch::VictimRank& b) {
  if (a.pr != b.pr) return a.pr < b.pr;
  if (a.sub != b.sub) return a.sub < b.sub;
  return a.id < b.id;
}

// Engine-internal Eq.-(9) evaluation over the committed plan: the same
// floating-point operation order as
// access_improvement_cached(inst, F, D, C) — g*(F) first, then the
// anti-improvement of the evictions — but with the D-membership test as an
// O(1) epoch mark and without re-verifying the engine-guaranteed
// preconditions (F valid and disjoint from C, D ⊆ C). Reuses the scratch
// mark epoch, so call it only after the committed marks are consumed.
double predicted_g_cached(InstanceView inst, const PrefetchPlan& out,
                          std::span<const ItemId> C, PlanScratch& scratch) {
  const std::span<const ItemId> F(out.fetch);
  const double st = stretch_time(inst, F);
  double gain = 0.0;
  for (const ItemId i : F) gain += inst.profit(i);
  double prob_K = 0.0;
  for (std::size_t k = 0; k + 1 < F.size(); ++k) {
    prob_K += inst.P[static_cast<std::size_t>(F[k])];
  }
  const double g_star = gain - (1.0 - prob_K) * st;

  scratch.begin_epoch(inst.n());  // marks = eviction membership
  for (const ItemId d : out.evict) scratch.set_mark(d);
  double anti_g = 0.0;
  for (const ItemId d : out.evict) anti_g += inst.profit(d);
  for (const ItemId c : C) {
    if (!scratch.marked(c)) {
      anti_g -= inst.P[static_cast<std::size_t>(c)] * st;
    }
  }
  return g_star - anti_g;
}

// Compacts `out.fetch` down to the items marked committed in `scratch`,
// preserving the selector's fetch order (canonical, stretching item last)
// so the Eq.-(1) construction stays valid; evictions are re-aligned with
// their fetches via `scratch.victim_of`.
void emit_committed(PlanScratch& scratch, PrefetchPlan& out) {
  out.evict.clear();
  std::size_t w = 0;
  for (std::size_t k = 0; k < out.fetch.size(); ++k) {
    const ItemId f = out.fetch[k];
    if (!scratch.marked(f)) continue;
    out.fetch[w++] = f;
    for (const auto& fv : scratch.victim_of) {
      if (fv.first == f) {
        out.evict.push_back(fv.second);
        break;
      }
    }
  }
  out.fetch.resize(w);
}

// Builds the candidate list by filtering a precomputed canonical row —
// a subsequence of a canonically sorted list is canonically sorted, so
// the per-solve sort disappears. `skip(id)` is the cached/uncacheable
// predicate; the min-profit threshold applies as in
// viable_candidates_into. The candidate fingerprint is derived from the
// row fingerprint by XORing away the (few) skipped items, and `suffix`
// borrows the precomputed Figure-3 tail sums when nothing was filtered.
template <typename SkipFn>
std::uint64_t filter_canonical_candidates(
    InstanceView inst, const CanonicalOrderTable::Row& row, SkipFn skip,
    double min_profit, std::vector<ItemId>& out,
    std::span<const double>& suffix) {
  out.clear();
  std::uint64_t fp = row.support_fp;
  for (const ItemId id : row.order) {
    const std::size_t i = InstanceView::idx(id);
    if (skip(id) ||
        (min_profit > 0.0 && inst.P[i] * inst.r[i] < min_profit)) {
      fp ^= zobrist_item_key(id);
      continue;
    }
    out.push_back(id);
  }
  if (out.size() == row.order.size()) suffix = row.suffix_prob;
  return fp;
}

// Memoized payload transfer: PrefetchPlan IS-A StoredPlan, so replay and
// store are slicing assignments (vector operator= reuses the
// destination's capacity on both sides).
void copy_plan(const StoredPlan& from, PrefetchPlan& to) {
  static_cast<StoredPlan&>(to) = from;
}

void copy_plan(const StoredPlan& from, StoredPlan& to) { to = from; }

}  // namespace

void PrefetchPlan::clear() {
  fetch.clear();
  evict.clear();
  predicted_g = 0.0;
  stretch = 0.0;
  solver_nodes = 0;
}

void PrefetchEngine::select_into(InstanceView inst,
                                 std::span<const ItemId> candidates,
                                 std::optional<ItemId> oracle_next,
                                 PlanScratch& scratch, PrefetchPlan& out,
                                 bool candidates_canonical,
                                 std::span<const double> suffix_prob) const {
  out.clear();
  switch (config_.policy) {
    case PrefetchPolicy::None:
      break;
    case PrefetchPolicy::Perfect: {
      if (oracle_next.has_value()) {
        const ItemId next = *oracle_next;
        if (std::find(candidates.begin(), candidates.end(), next) !=
            candidates.end()) {
          out.fetch.push_back(next);
          out.stretch = stretch_time(inst, out.fetch);
          // access_improvement(inst, {z}) specialized to the singleton
          // list: g* = P_z r_z - 1.0 * st (K is empty, full penalty
          // mass) — identical arithmetic. The Eq.-(1) validity check
          // reduces to 0 < v for a singleton; keep it (only this branch
          // can emit a non-empty plan when v == 0).
          SKP_REQUIRE(inst.v > 0.0, "invalid prefetch list");
          out.predicted_g = inst.profit(next) - out.stretch;
        }
      }
      break;
    }
    case PrefetchPolicy::KP: {
      if (candidates_canonical) {
        solve_kp_bb_sorted_into(inst, candidates, scratch.kp,
                                scratch.kp_sol);
      } else {
        solve_kp_bb_into(inst, candidates, scratch.kp, scratch.kp_sol);
      }
      out.fetch.assign(scratch.kp_sol.items.begin(),
                       scratch.kp_sol.items.end());
      out.predicted_g = scratch.kp_sol.value;
      out.solver_nodes = scratch.kp_sol.nodes;
      out.stretch = 0.0;  // KP never stretches by construction
      break;
    }
    case PrefetchPolicy::SKP: {
      SkpOptions opts;
      opts.delta_rule = config_.delta_rule;
      opts.max_nodes = config_.max_solver_nodes;
      if (candidates_canonical) {
        solve_skp_sorted_into(inst, candidates, opts, scratch.skp,
                              scratch.skp_sol, suffix_prob);
      } else {
        solve_skp_into(inst, candidates, opts, scratch.skp,
                       scratch.skp_sol);
      }
      out.fetch.assign(scratch.skp_sol.F.begin(), scratch.skp_sol.F.end());
      out.predicted_g = scratch.skp_sol.g;
      out.stretch = scratch.skp_sol.stretch;
      out.solver_nodes = scratch.skp_sol.forward_steps;
      break;
    }
  }
}

void PrefetchEngine::plan(InstanceView inst, PlanScratch& scratch,
                          PrefetchPlan& out,
                          std::optional<ItemId> oracle_next) const {
  inst.validate_shape();
  viable_candidates_into(
      inst, [](ItemId) { return false; }, config_.min_profit_threshold,
      scratch.candidates);
  select_into(inst, scratch.candidates, oracle_next, scratch, out);
}

PrefetchPlan PrefetchEngine::plan(InstanceView inst,
                                  std::optional<ItemId> oracle_next) const {
  inst.validate();
  PlanScratch scratch;
  PrefetchPlan out;
  plan(inst, scratch, out, oracle_next);
  return out;
}

void PrefetchEngine::select_memoized(
    InstanceView inst, const PlanMemo& memo,
    std::optional<ItemId> oracle_next, PlanScratch& scratch,
    PrefetchPlan& out, bool candidates_canonical,
    std::span<const double> suffix_prob,
    std::optional<std::uint64_t> candidates_fp) const {
  if (memo.selections == nullptr || !memoizable_policy()) {
    select_into(inst, scratch.candidates, oracle_next, scratch, out,
                candidates_canonical, suffix_prob);
    return;
  }
  SKP_REQUIRE(memo.selections->config_digest() == digest_,
              "selection PlanCache built for a different engine config");
  std::uint64_t fp = 0;
  if (candidates_fp) {
    fp = *candidates_fp;
  } else {
    for (const ItemId id : scratch.candidates) fp ^= zobrist_item_key(id);
  }
  if (const StoredPlan* stored = memo.selections->find(memo.state_key, fp)) {
    copy_plan(*stored, out);
    return;
  }
  select_into(inst, scratch.candidates, oracle_next, scratch, out,
              candidates_canonical, suffix_prob);
  if (StoredPlan* slot = memo.selections->insert(memo.state_key, fp)) {
    copy_plan(out, *slot);
  }
}

template <typename Cache, typename SkipFn, typename AdmitFn>
void PrefetchEngine::plan_memoized(InstanceView inst, const Cache& cache,
                                   SkipFn skip, AdmitFn admit,
                                   const PlanMemo& memo, PlanScratch& scratch,
                                   PrefetchPlan& out,
                                   std::optional<ItemId> oracle_next,
                                   std::optional<std::span<const ItemId>>
                                       positive_hint) const {
  inst.validate_shape();
  // The instance and cache must describe the same catalog: the victim
  // ranking and Eq.-(9) evaluation index P/r (and the scratch mark
  // array, sized to inst.n()) with cached item ids, so a larger cache
  // catalog would read — and mark — out of bounds.
  SKP_REQUIRE(inst.n() == cache.presence().size(),
              "catalog of " << inst.n() << " items vs cache catalog of "
                            << cache.presence().size());
  const bool memoized = memo.plans != nullptr && memoizable_policy();
  if (memoized) {
    SKP_REQUIRE(memo.plans->config_digest() == digest_,
                "PlanCache built for a different engine config");
    if (const StoredPlan* stored =
            memo.plans->find(memo.state_key, cache.fingerprint())) {
      copy_plan(*stored, out);
      return;
    }
  }
  bool canonical = false;
  std::span<const double> suffix;
  std::optional<std::uint64_t> candidates_fp;
  if (memo.canon != nullptr && positive_hint && !positive_hint->empty()) {
    canonical = true;
    candidates_fp = filter_canonical_candidates(
        inst, memo.canon->row(memo.state_key, inst, *positive_hint), skip,
        config_.min_profit_threshold, scratch.candidates, suffix);
  } else {
    viable_candidates_into(inst, skip, config_.min_profit_threshold,
                           scratch.candidates, positive_hint);
  }
  select_memoized(inst, memo, oracle_next, scratch, out, canonical, suffix,
                  candidates_fp);
  admit();
  if (memoized) {
    if (StoredPlan* slot =
            memo.plans->insert(memo.state_key, cache.fingerprint())) {
      copy_plan(out, *slot);
    }
  }
}

void PrefetchEngine::plan_with_cache_cached(
    InstanceView inst, const SlotCache& cache, const FreqTracker* freq,
    const PlanMemo& memo, PlanScratch& scratch, PrefetchPlan& out,
    std::optional<ItemId> oracle_next,
    std::optional<std::span<const ItemId>> positive_hint) const {
  const std::span<const char> present = cache.presence();
  plan_memoized(
      inst, cache,
      [present](ItemId id) {
        return present[static_cast<std::size_t>(id)] != 0;
      },
      [&] { admit_slot_into(inst, cache, freq, scratch, out); }, memo,
      scratch, out, oracle_next, positive_hint);
}

void PrefetchEngine::admit_slot_into(InstanceView inst,
                                     const SlotCache& cache,
                                     const FreqTracker* freq,
                                     PlanScratch& scratch,
                                     PrefetchPlan& out) const {
  if (out.fetch.empty()) {
    out.clear();  // an empty proposal reports no solver stats (pre-refactor
                  // behaviour, kept for bit-identical metrics)
    return;
  }

  // Figure 6: process candidates in descending P_f r_f; each must find a
  // minimal-Pr victim that Pr-arbitration lets it displace. Free slots are
  // uncontested. The Perfect oracle bypasses the admission test (it knows
  // its item is the next access) but still evicts the minimal-Pr victim.
  //
  // Victim extraction: the eviction order is ascending (Pr, sub, id) with
  // Pr = P_d r_d == 0 exactly when P_d == 0 (r is positive). Without
  // sub-arbitration that order is "cached items with P == 0 by ascending
  // id, then positive-Pr items by rank" — the zero-Pr group falls
  // straight out of the cache's id-sorted index, so the common case
  // (sparse P rows, few victims) never builds the O(|C|) ranking; only
  // the positive-Pr tail ranks, and only if reached. LFU/DS tie-breaks
  // depend on frequencies, so sub-arbitration keeps the full ranking.
  profit_order_into(inst, out.fetch, scratch.admit_keys, scratch.by_profit);
  const bool fast_victims =
      config_.arbitration.sub == SubArbitration::None;
  const std::span<const ItemId> sorted = cache.sorted_contents();
  std::size_t zero_cursor = 0;  // cursor over the id-sorted cached items
  bool ranked_built = false;    // rank lazily: uncontested rounds skip it
  std::size_t next_victim = 0;
  std::size_t free_slots = cache.capacity() - cache.size();
  scratch.begin_epoch(inst.n());  // marks = committed membership
  scratch.victim_of.clear();
  for (ItemId f : scratch.by_profit) {
    if (free_slots > 0) {
      --free_slots;
      scratch.set_mark(f);
      continue;
    }
    double victim_pr = 0.0;
    ItemId victim_id = kNoItem;
    if (fast_victims) {
      while (zero_cursor < sorted.size() &&
             inst.P[static_cast<std::size_t>(sorted[zero_cursor])] != 0.0) {
        ++zero_cursor;
      }
      if (zero_cursor < sorted.size()) {
        victim_id = sorted[zero_cursor++];  // Pr == 0, minimal id first
      }
    }
    if (victim_id == kNoItem) {
      if (!ranked_built) {
        if (fast_victims) {
          // Zero-Pr pool exhausted: rank the remaining (positive-Pr)
          // cached items. Every zero-Pr item was already consumed, so
          // restricting the ranking to P > 0 reproduces the tail of the
          // full ranking exactly.
          scratch.ranked.clear();
          for (const ItemId c : sorted) {
            const auto ci = static_cast<std::size_t>(c);
            if (inst.P[ci] == 0.0) continue;
            scratch.ranked.push_back({inst.P[ci] * inst.r[ci], 0.0, c});
          }
        } else {
          rank_victims(inst, cache.contents(), freq, config_.arbitration,
                       scratch);
        }
        // At most one victim per remaining fetch candidate can be
        // consumed, so sorting that prefix replaces the per-victim
        // selection scans of extract_victim — (pr, sub, id) is a total
        // order (ids are unique), so ANY algorithm extracting ascending
        // ranks yields the same victim sequence bit for bit.
        const std::size_t need =
            std::min(scratch.by_profit.size(), scratch.ranked.size());
        std::partial_sort(scratch.ranked.begin(),
                          scratch.ranked.begin() +
                              static_cast<std::ptrdiff_t>(need),
                          scratch.ranked.end(), victim_rank_less);
        ranked_built = true;
      }
      if (next_victim >= scratch.ranked.size()) break;  // nothing to
                                                        // displace
      const PlanScratch::VictimRank& vr = scratch.ranked[next_victim];
      ++next_victim;
      victim_pr = vr.pr;
      victim_id = vr.id;
    }
    if (config_.policy != PrefetchPolicy::Perfect) {
      // Pr-arbitration admission test (admits_prefetch, inlined on the
      // ranked Pr value).
      const double pf = inst.profit(f);
      const bool admit = config_.arbitration.strict_ties
                             ? (pf > victim_pr)
                             : (pf >= victim_pr);
      if (!admit) break;  // Figure 6 stops at the first rejected candidate
    }
    scratch.set_mark(f);
    scratch.victim_of.emplace_back(f, victim_id);
  }

  emit_committed(scratch, out);
  if (out.fetch.empty()) {
    out.predicted_g = 0.0;
    out.stretch = 0.0;
    return;
  }
  out.stretch = stretch_time(inst, out.fetch);
  out.predicted_g =
      config_.evaluate_plan_g
          ? predicted_g_cached(inst, out, cache.contents(), scratch)
          : 0.0;
}

PrefetchPlan PrefetchEngine::plan_with_cache(
    InstanceView inst, const SlotCache& cache, const FreqTracker* freq,
    std::optional<ItemId> oracle_next) const {
  inst.validate();
  PlanScratch scratch;
  PrefetchPlan out;
  plan_with_cache_cached(inst, cache, freq, PlanMemo{}, scratch, out,
                         oracle_next);
  return out;
}

void PrefetchEngine::plan_with_sized_cache_cached(
    InstanceView inst, const SizedCache& cache, const FreqTracker* freq,
    const PlanMemo& memo, PlanScratch& scratch, PrefetchPlan& out,
    std::optional<ItemId> oracle_next,
    std::optional<std::span<const ItemId>> positive_hint) const {
  plan_memoized(
      inst, cache,
      [&cache](ItemId id) {
        return cache.contains(id) || !cache.cacheable(id);
      },
      [&] { admit_sized_into(inst, cache, freq, scratch, out); }, memo,
      scratch, out, oracle_next, positive_hint);
}

void PrefetchEngine::admit_sized_into(InstanceView inst,
                                      const SizedCache& cache,
                                      const FreqTracker* freq,
                                      PlanScratch& scratch,
                                      PrefetchPlan& out) const {
  if (out.fetch.empty()) {
    out.clear();
    return;
  }

  profit_order_into(inst, out.fetch, scratch.admit_keys, scratch.by_profit);

  // Victim searches run on a scratch copy from which victims are removed
  // as they are claimed (copy-assignment reuses the scratch cache's
  // storage); committed prefetches are accounted as *reserved* space
  // rather than inserted, so a later candidate can never evict an earlier
  // one.
  if (scratch.sized.has_value()) {
    *scratch.sized = cache;
  } else {
    scratch.sized.emplace(cache);
  }
  SizedCache& working = *scratch.sized;
  double reserved = 0.0;
  scratch.begin_epoch(inst.n());  // marks = committed membership
  out.evict.clear();
  for (const ItemId f : scratch.by_profit) {
    gather_victims_by_density_into(inst, working, freq, config_.arbitration,
                                   reserved + working.size_of(f),
                                   scratch.pool, scratch.victims);
    if (!scratch.victims.ok) break;  // cannot make room evicting everything
    // Generalized Pr admission: the candidate must beat the combined Pr
    // of everything it displaces (Figure-6 tie semantics).
    const bool admit =
        config_.policy == PrefetchPolicy::Perfect ||
        (config_.arbitration.strict_ties
             ? inst.profit(f) > scratch.victims.total_pr
             : inst.profit(f) >= scratch.victims.total_pr);
    if (!admit) break;
    for (const ItemId d : scratch.victims.victims) {
      working.erase(d);
      out.evict.push_back(d);
    }
    reserved += working.size_of(f);
    scratch.set_mark(f);
  }

  // Keep committed items in the selector's fetch order; `evict` stays the
  // flat victim list accumulated above (|evict| != |fetch| in general).
  std::size_t w = 0;
  for (std::size_t k = 0; k < out.fetch.size(); ++k) {
    const ItemId f = out.fetch[k];
    if (scratch.marked(f)) out.fetch[w++] = f;
  }
  out.fetch.resize(w);
  if (out.fetch.empty()) {
    out.predicted_g = 0.0;
    out.stretch = 0.0;
    return;
  }
  out.stretch = stretch_time(inst, out.fetch);
  out.predicted_g =
      config_.evaluate_plan_g
          ? predicted_g_cached(inst, out, cache.contents(), scratch)
          : 0.0;
}

PrefetchPlan PrefetchEngine::plan_with_sized_cache(
    InstanceView inst, const SizedCache& cache, const FreqTracker* freq,
    std::optional<ItemId> oracle_next) const {
  inst.validate();
  PlanScratch scratch;
  PrefetchPlan out;
  plan_with_sized_cache_cached(inst, cache, freq, PlanMemo{}, scratch, out,
                               oracle_next);
  return out;
}

}  // namespace skp
