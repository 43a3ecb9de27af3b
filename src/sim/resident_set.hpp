// One client's resident set: its cache (slot or sized), the frequency
// book LFU/DS sub-arbitration reads, and the marks of items prefetched
// but not yet viewed.
//
// Every Figure-6 driver (the Monte-Carlo loop in sim/prefetch_cache.cpp,
// ClientSession::request, multi_client's cycle) mutates its cache only
// through this book, so the Section-5 cache contract lives here once:
// a plan executes with each fetch claiming its victim, a demand fetch
// claims a minimal-Pr victim under the row its caller passes, and a
// prefetched item that leaves the cache before anyone viewed it counts
// as a wasted prefetch (an abandoned transfer, which never arrived, does
// not). A null SimMetrics pointer (a warm-up request) updates the state
// without counting.
#pragma once

#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/sized_cache.hpp"
#include "core/arbitration.hpp"
#include "core/plan_cache.hpp"
#include "sim/metrics.hpp"

namespace skp {

template <typename Cache>
class ResidentSet {
  static constexpr bool kSized = std::is_same_v<Cache, SizedCache>;
  static_assert(kSized || std::is_same_v<Cache, SlotCache>);

 public:
  explicit ResidentSet(Cache cache)
      : cache_(std::move(cache)),
        freq_(cache_.presence().size()),
        unviewed_(cache_.presence().size(), 0) {}

  const Cache& cache() const noexcept { return cache_; }
  const FreqTracker& freq() const noexcept { return freq_; }

  // Executes `plan`, booking each prefetch at r[f]. A slot cache's fetch
  // k claims plan.evict[k] once the cache is full; a sized cache erases
  // the whole victim set first, then inserts the fetches. `deliver(f)`
  // runs once fetch f holds its slot and returns whether the transfer
  // arrived; an abandoned one releases the slot (its victim is already
  // gone) uncounted, and the item is demand-fetched if it is ever
  // requested.
  template <typename Deliver>
  void execute(const StoredPlan& plan, std::span<const double> r,
               SimMetrics* m, Deliver&& deliver) {
    if constexpr (kSized) {
      for (const ItemId d : plan.evict) evict(d, m);
    }
    [[maybe_unused]] std::size_t victim_idx = 0;
    for (const ItemId f : plan.fetch) {
      if constexpr (!kSized) {
        if (cache_.full()) {
          SKP_ASSERT(victim_idx < plan.evict.size());
          evict(plan.evict[victim_idx++], m);
        }
      }
      cache_.insert(f);
      unviewed_[InstanceView::idx(f)] = 1;
      if (!deliver(f)) {
        cache_.erase(f);
        unviewed_[InstanceView::idx(f)] = 0;
      }
      if (m) {
        ++m->prefetch_fetches;
        m->network_time += r[InstanceView::idx(f)];
        m->prefetch_network_time += r[InstanceView::idx(f)];
      }
    }
  }
  void execute(const StoredPlan& plan, std::span<const double> r,
               SimMetrics* m) {
    execute(plan, r, m, [](ItemId) { return true; });
  }

  // The user viewed `item`: count the access and clear its mark.
  void view(ItemId item) {
    freq_.record(item);
    unviewed_[InstanceView::idx(item)] = 0;
  }

  // Demand-fetches non-resident `item`, booked at r[item]. When the
  // item needs room, `victim_row()` supplies the probabilities the
  // victim is chosen under: minimal Pr on a slot cache, the density
  // gather on a sized one. An item larger than a sized cache is served
  // uncached.
  template <typename VictimRow>
  void admit_demand(ItemId item, std::span<const double> r,
                    const ArbitrationConfig& arb, SimMetrics* m,
                    VictimRow&& victim_row) {
    if (m) {
      ++m->demand_fetches;
      m->network_time += r[InstanceView::idx(item)];
      m->demand_network_time += r[InstanceView::idx(item)];
    }
    if constexpr (kSized) {
      if (!cache_.cacheable(item)) return;
      gather_victims_by_density_into(victim_row(), cache_, &freq_, arb,
                                     cache_.size_of(item), gather_.pool,
                                     gather_.victims);
      SKP_ASSERT(gather_.victims.ok);
      for (const ItemId d : gather_.victims.victims) evict(d, m);
    } else if (cache_.full()) {
      evict(choose_victim(victim_row(), cache_.contents(), &freq_, arb), m);
    }
    cache_.insert(item);
  }

  // The client walks away (churn): every unviewed resident is wasted,
  // and the cache and frequency book start over.
  void flush(SimMetrics* m) {
    for (const ItemId item : cache_.contents()) unmark(item, m);
    cache_.clear();
    freq_.reset();
  }

 private:
  void unmark(ItemId item, SimMetrics* m) {
    char& mark = unviewed_[InstanceView::idx(item)];
    if (mark && m) ++m->wasted_prefetches;
    mark = 0;
  }
  void evict(ItemId victim, SimMetrics* m) {
    unmark(victim, m);
    cache_.erase(victim);
  }

  // The sized cache's victim-gather buffers (none for a slot cache).
  struct NoBuffers {};
  struct GatherBuffers {
    std::vector<ItemId> pool;
    VictimSet victims;
  };

  Cache cache_;
  FreqTracker freq_;
  std::vector<char> unviewed_;  // prefetched, not yet viewed
  [[no_unique_address]] std::conditional_t<kSized, GatherBuffers, NoBuffers>
      gather_;
};

}  // namespace skp
