// Pr-arbitration and sub-arbitration (Section 5.2 of the paper).
//
// Pr-arbitration: a prefetch candidate f may evict a cached victim d only
// if d has the minimal Pr value P_d * r_d in the cache and (per the
// Figure-6 listing) P_f r_f is not smaller than P_d r_d, so a tie admits
// the prefetch (DESIGN.md D4). Demand-fetched items must always find a
// victim and need only the minimality condition.
//
// Sub-arbitration breaks ties among victims with equal Pr value:
//   * None — lowest item id (deterministic).
//   * LFU  — least frequently used.
//   * DS   — lowest delay-saving profit freq_i * r_i (WATCHMAN-style).
#pragma once

#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/sized_cache.hpp"
#include "core/item.hpp"

namespace skp {

enum class SubArbitration { None, LFU, DS };

struct ArbitrationConfig {
  SubArbitration sub = SubArbitration::None;
};

// The sub-arbitration score of item `i`, whose retrieval time is `r_i`:
// LFU's freq_i, DS's delay-saving profit freq_i * r_i, 0 under None. Every
// victim ranking and the LFU/DS eviction order a ResidentSet keeps score
// through this one definition. Inline: ranking loops call it per resident.
inline double sub_score(const FreqTracker& freq, SubArbitration sub,
                        ItemId i, double r_i) {
  switch (sub) {
    case SubArbitration::LFU:
      return freq.frequency(i);
    case SubArbitration::DS:
      return freq.delay_saving_profit(i, r_i);
    case SubArbitration::None:
      return 0.0;
  }
  return 0.0;  // unreachable
}

// Chooses the eviction victim among `cached` (non-empty): minimal
// P_d * r_d, ties resolved by `cfg.sub` (then by lowest id). `freq` may be
// null only when cfg.sub == None.
ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg);

// choose_victim over `order`, which lists every cached item exactly once
// in descending (sub score, id) order under the sub-arbitration the
// victim is chosen for (the order a ResidentSet keeps for LFU/DS). The
// walk runs from the back, so it visits equal-Pr items in ascending
// (sub, id) order: the victim is the first zero-Pr item it meets or, if
// there is none, the least Pr, the first walked winning ties. Equal to
// choose_victim over the same items; no sub score is read.
ItemId choose_victim_in_order(InstanceView inst,
                              std::span<const ItemId> order);

// choose_victim under SubArbitration::None over every item `cache`
// holds (non-empty). Every P_d r_d is >= 0, so the victim is the
// lowest-id zero-Pr resident when there is one: the cache's ascending-id
// walk over its presence bits (the walk Figure-6 admission takes its
// zero-Pr victims from) stops at it. Only when every resident has
// positive Pr is choose_victim run over cache.contents().
ItemId choose_victim_in_id_order(InstanceView inst, const SlotCache& cache);

// True when prefetch candidate `f` is allowed to displace victim `d`
// (Pr-arbitration admission test, P_f r_f >= P_d r_d).
bool admits_prefetch(InstanceView inst, ItemId f, ItemId d);

// Size-aware generalization (extension; the paper's Section-6 open item).
// Greedily gathers victims from `cache` by ascending Pr *density*
// (P_d r_d per size unit, ties by sub-arbitration then id) until
// `needed_free` space is available (counting current free space).
// Returns the victim list; `ok` is false when even evicting everything
// would not make room.
struct VictimSet {
  std::vector<ItemId> victims;
  double freed = 0.0;     // space the victims release
  double total_pr = 0.0;  // sum of P_d r_d over the victims
  bool ok = false;

  // Resets to the empty set, keeping `victims`' capacity (hot-path reuse).
  void clear();
};
VictimSet gather_victims_by_density(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free);

// Allocation-free variant: the candidate pool is staged in `pool` and the
// result written into `out` (both cleared first, capacity reused).
// Bit-identical to gather_victims_by_density.
void gather_victims_by_density_into(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free,
                                    std::vector<ItemId>& pool,
                                    VictimSet& out);

}  // namespace skp
