// Reusable workspace for the per-request planning hot path.
//
// The paper-scale sweeps (Figure 7: 5 policies x 100 cache sizes x 50 000
// requests = 25M planning rounds) spend a measurable fraction of their
// wall-clock allocating and freeing the same dozen small vectors per round.
// A PlanScratch owns every buffer the planning stack needs — candidate
// shortlist, canonical order, solver stacks, Figure-6 admission state, a
// predictor output row — so a sim loop allocates once and every subsequent
// `PrefetchEngine::plan*` call runs allocation-free (amortized: vectors
// only grow, never shrink).
//
// A PlanScratch is plain state, not thread-safe: give each sim loop /
// worker thread its own. Results are bit-identical to the scratch-free
// overloads — the buffers change where intermediates live, never their
// values (tests/test_prefetch_cache_sim.cpp pins this at fixed seeds).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/sized_cache.hpp"
#include "core/arbitration.hpp"
#include "core/item.hpp"
#include "core/kp_solver.hpp"
#include "core/skp_solver.hpp"

namespace skp {

struct PlanScratch {
  // Candidate shortlist (N \ C with positive probability) fed to the
  // selector, and the Figure-6 admission loop's working sets.
  std::vector<ItemId> candidates;
  std::vector<ItemId> by_profit;
  std::vector<std::pair<ItemId, ItemId>> victim_of;  // (fetch, victim)

  // The next victims of one planning round, ascending (Pr, sub, id): Pr
  // values and sub-arbitration scores are fixed while one plan is built,
  // so consuming this buffer left-to-right replays repeated minimal-Pr
  // victim extraction exactly. It holds only as many ranks as candidates
  // were left to place when it was filled.
  struct VictimRank {
    double pr;   // P_d * r_d
    double sub;  // sub-arbitration score (0 when sub == None)
    ItemId id;
  };
  std::vector<VictimRank> ranked;

  // Figure-6 admission sort keys, staged once per round so the sort
  // comparator reads flat records instead of re-deriving P_f r_f (and the
  // Eq.-5 tie-break) per comparison.
  struct AdmitKey {
    double pr;  // P_f * r_f (primary, descending)
    double P;   // Eq.-5 tie-break: P desc, r asc, id asc
    double r;
    ItemId id;
  };
  std::vector<AdmitKey> admit_keys;

  // Solver workspaces + reusable solution slots (their internal vectors
  // are cleared, not freed, between solves).
  SkpWorkspace skp;
  SkpSolution skp_sol;
  KpWorkspace kp;
  KpSolution kp_sol;

  // Sized-cache planning: victim-gathering pool + result, and a scratch
  // copy of the cache that victim searches mutate (copy-assigned from the
  // real cache each round, reusing its storage).
  std::vector<ItemId> pool;
  VictimSet victims;
  std::optional<SizedCache> sized;

  // Probability row for predictor / lookahead planning: predictors write
  // their distribution here instead of returning a fresh vector.
  std::vector<double> P;

  // ---- Epoch-tagged membership marks over the catalog ------------------
  // A reusable "bitset": set/test are O(1) and begin_epoch is O(1)
  // amortized (a full clear only happens when the 32-bit epoch wraps).
  // Replaces the O(n) std::find membership tests in the Figure-6
  // admission loop.
  void begin_epoch(std::size_t n) {
    if (mark_.size() < n) mark_.resize(n, 0);
    if (++epoch_ == 0) {  // wrapped: stale tags could alias the new epoch
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
  }
  bool marked(ItemId i) const {
    return mark_[InstanceView::idx(i)] == epoch_;
  }
  void set_mark(ItemId i) { mark_[InstanceView::idx(i)] = epoch_; }

 private:
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
};

}  // namespace skp
