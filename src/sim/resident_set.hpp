// One client's resident set: its cache (slot or sized), the frequency
// book LFU/DS sub-arbitration reads, the marks of items prefetched but
// not yet viewed, and, for a slot cache under LFU/DS, the residents'
// eviction order.
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
//
// The eviction order lists the residents by descending (sub score, id):
// LFU's freq_i or DS's freq_i * r_i. Victims are minimal (Pr, sub, id)
// and most residents of a sparse row have Pr = 0, so the next victims sit
// at the order's back, and planning (plan_with_cache_cached's
// `eviction_order`) and demand fetches walk a few entries from there
// instead of ranking the cache. Without sub-arbitration no order is
// kept: ties go to the lowest id, so both walk the cache's presence bits
// in ascending id order instead. A sub score changes only when view()
// counts an access, so the order moves one entry per mutation: an insert
// is appended at the back and shifted forward past the entries it
// outranks, an evict closes its gap from the back, and a view re-keys
// its item forward the same way. Each shift spans only the entries
// between an item's old and new slots.
#pragma once

#include <optional>
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
  // `r` prices every fetch (the catalog's retrieval times, indexed by
  // item id; it must outlive the book) and, under DS, scores the
  // residents. `arb` picks demand victims.
  ResidentSet(Cache cache, std::span<const double> r,
              const ArbitrationConfig& arb)
      : cache_(std::move(cache)),
        r_(r),
        arb_(arb),
        freq_(cache_.presence().size()),
        unviewed_(cache_.presence().size(), 0) {
    SKP_REQUIRE(r_.size() == cache_.presence().size(),
                r_.size() << " retrieval times for a catalog of "
                          << cache_.presence().size());
  }

  const Cache& cache() const noexcept { return cache_; }
  const FreqTracker& freq() const noexcept { return freq_; }

  // Every resident in descending (sub score, id) order, so the next
  // victims sit at the back; engaged only for a slot cache under LFU/DS
  // (the planner's `eviction_order` hint).
  std::optional<std::span<const ItemId>> eviction_order() const noexcept {
    if (!keeps_order()) return std::nullopt;
    return std::span<const ItemId>(order_);
  }

  // Executes `plan`, booking each prefetch at r[f]. A slot cache's fetch
  // k claims plan.evict[k] once the cache is full; a sized cache erases
  // the whole victim set first, then inserts the fetches. `deliver(f)`
  // runs once fetch f holds its slot and returns whether the transfer
  // arrived; an abandoned one releases the slot (its victim is already
  // gone) uncounted, and the item is demand-fetched if it is ever
  // requested.
  template <typename Deliver>
  void execute(const StoredPlan& plan, SimMetrics* m, Deliver&& deliver) {
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
      if (deliver(f)) {
        if (keeps_order()) order_insert(f);
      } else {
        cache_.erase(f);
        unviewed_[InstanceView::idx(f)] = 0;
      }
      if (m) {
        ++m->prefetch_fetches;
        m->network_time += r_[InstanceView::idx(f)];
        m->prefetch_network_time += r_[InstanceView::idx(f)];
      }
    }
  }
  void execute(const StoredPlan& plan, SimMetrics* m) {
    execute(plan, m, [](ItemId) { return true; });
  }

  // The user viewed `item`: count the access and clear its mark. A
  // resident's sub score rises, so its order entry moves forward.
  void view(ItemId item) {
    const bool rekey = keeps_order() && cache_.contains(item);
    const std::size_t at = rekey ? order_find(order_key(item), item) : 0;
    freq_.record(item);
    if (rekey) order_raise(at, item);
    unviewed_[InstanceView::idx(item)] = 0;
  }

  // Demand-fetches non-resident `item`, booked at r[item]. When the
  // item needs room, `victim_row()` supplies the probabilities the
  // victim is chosen under: minimal Pr on a slot cache, the density
  // gather on a sized one. A slot cache walks to its victim, from the
  // back of the eviction order under LFU/DS and over its presence bits
  // in ascending id order without sub-arbitration; either walk stops at
  // the first zero-Pr resident, which sparse rows nearly always hold.
  // An item larger than a sized cache is served uncached.
  template <typename VictimRow>
  void admit_demand(ItemId item, SimMetrics* m, VictimRow&& victim_row) {
    if (m) {
      ++m->demand_fetches;
      m->network_time += r_[InstanceView::idx(item)];
      m->demand_network_time += r_[InstanceView::idx(item)];
    }
    if constexpr (kSized) {
      if (!cache_.cacheable(item)) return;
      gather_victims_by_density_into(victim_row(), cache_, &freq_, arb_,
                                     cache_.size_of(item), gather_.pool,
                                     gather_.victims);
      SKP_ASSERT(gather_.victims.ok);
      for (const ItemId d : gather_.victims.victims) evict(d, m);
    } else if (cache_.full()) {
      const InstanceView row = victim_row();
      const ItemId victim = keeps_order()
                                ? choose_victim_in_order(row, order_)
                                : choose_victim_in_id_order(row, cache_);
      SKP_ASSERT(victim ==
                 choose_victim(row, cache_.contents(), &freq_, arb_));
      evict(victim, m);
    }
    cache_.insert(item);
    if (keeps_order()) order_insert(item);
  }

  // The client walks away (churn): every unviewed resident is wasted,
  // and the cache, frequency book and eviction order start over.
  void flush(SimMetrics* m) {
    for (const ItemId item : cache_.contents()) unmark(item, m);
    cache_.clear();
    freq_.reset();
    order_.clear();
    order_sub_.clear();
  }

 private:
  bool keeps_order() const noexcept {
    return !kSized && arb_.sub != SubArbitration::None;
  }
  // An entry's key: the LFU/DS score choose_victim ranks by.
  double order_key(ItemId item) const {
    return sub_score(freq_, arb_.sub, item, r_[InstanceView::idx(item)]);
  }
  // True when order entry j sorts before (s, item): a larger key.
  bool order_before(std::size_t j, double s, ItemId item) const {
    return order_sub_[j] > s || (order_sub_[j] == s && order_[j] > item);
  }
  // The index of `item`, whose entry is keyed `s`.
  std::size_t order_find(double s, ItemId item) const {
    std::size_t lo = 0;
    std::size_t hi = order_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (order_before(mid, s, item)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    SKP_ASSERT(lo < order_.size() && order_[lo] == item);
    return lo;
  }
  // Re-keys the entry at `at`, holding `item`, at its current (not
  // lower) score: it moves forward past every entry it now outranks.
  void order_raise(std::size_t at, ItemId item) {
    const double s = order_key(item);
    for (; at > 0 && !order_before(at - 1, s, item); --at) {
      order_[at] = order_[at - 1];
      order_sub_[at] = order_sub_[at - 1];
    }
    order_[at] = item;
    order_sub_[at] = s;
  }
  void order_insert(ItemId item) {
    order_.push_back(item);
    order_sub_.push_back(0.0);
    order_raise(order_.size() - 1, item);
  }
  // Victims sit near the back, so the search runs from there and the
  // gap closes over the entries it passed.
  void order_erase(ItemId item) {
    std::size_t at = order_.size() - 1;
    while (order_[at] != item) {
      SKP_ASSERT(at > 0);
      --at;
    }
    for (; at + 1 < order_.size(); ++at) {
      order_[at] = order_[at + 1];
      order_sub_[at] = order_sub_[at + 1];
    }
    order_.pop_back();
    order_sub_.pop_back();
  }

  void unmark(ItemId item, SimMetrics* m) {
    char& mark = unviewed_[InstanceView::idx(item)];
    if (mark && m) ++m->wasted_prefetches;
    mark = 0;
  }
  void evict(ItemId victim, SimMetrics* m) {
    unmark(victim, m);
    cache_.erase(victim);
    if (keeps_order()) order_erase(victim);
  }

  // The sized cache's victim-gather buffers (none for a slot cache).
  struct NoBuffers {};
  struct GatherBuffers {
    std::vector<ItemId> pool;
    VictimSet victims;
  };

  Cache cache_;
  std::span<const double> r_;
  ArbitrationConfig arb_;
  FreqTracker freq_;
  std::vector<char> unviewed_;  // prefetched, not yet viewed
  // The eviction order (LFU/DS slot caches only): resident ids and their
  // sub scores, in descending (score, id) order.
  std::vector<ItemId> order_;
  std::vector<double> order_sub_;
  [[no_unique_address]] std::conditional_t<kSized, GatherBuffers, NoBuffers>
      gather_;
};

}  // namespace skp
