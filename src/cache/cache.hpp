// Slot cache with equal item sizes (the Section-5 assumption, DESIGN.md D6).
//
// The cache stores item ids; capacity counts items. Membership queries are
// O(1) via a presence bitmap; the content list is maintained in insertion
// order so iteration is deterministic, and one presence bit per item
// yields the contents in ascending id order on demand. Eviction decisions
// are made by the caller (arbitration / replacement policies) — the cache
// itself only enforces capacity and uniqueness.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/zobrist.hpp"
#include "core/item.hpp"

namespace skp {

class SlotCache {
 public:
  // `catalog_size` bounds valid item ids; `capacity` >= 1 slots.
  SlotCache(std::size_t catalog_size, std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return contents_.size(); }
  bool full() const noexcept { return contents_.size() == capacity_; }
  bool empty() const noexcept { return contents_.empty(); }

  // Inline: the candidate filter probes this once per catalog item per
  // planning round.
  bool contains(ItemId item) const {
    check_id(item);
    return present_[static_cast<std::size_t>(item)] != 0;
  }

  // Raw presence bitmap (indexed by item id over the whole catalog) for
  // bulk membership scans that bounds-check once instead of per probe.
  std::span<const char> presence() const noexcept { return present_; }

  // Zobrist fingerprint of the current content set (cache/zobrist.hpp):
  // XOR of the per-item keys, maintained in O(1) per mutation, equal for
  // equal sets regardless of insertion order (0 when empty). Keys the
  // cross-request plan memoization.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  // Inserts an item that must not already be cached; throws when full
  // (evict first) or duplicated. Inline (with erase/replace below): the
  // sim loops mutate the cache tens of millions of times per sweep.
  void insert(ItemId item) {
    check_id(item);
    SKP_REQUIRE(!contains(item), "item " << item << " already cached");
    SKP_REQUIRE(contents_.size() < capacity_,
                "cache full (capacity " << capacity_ << "); evict first");
    const auto i = static_cast<std::size_t>(item);
    pos_[i] = static_cast<std::uint32_t>(contents_.size());
    contents_.push_back(item);
    present_[i] = 1;
    bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    fingerprint_ ^= zobrist_item_key(item);
  }

  // Removes a cached item; throws if absent.
  void erase(ItemId item) {
    check_id(item);
    SKP_REQUIRE(contains(item), "item " << item << " not cached");
    // O(1) position lookup; one fused pass shifts the tail down and
    // reindexes it, keeping the documented insertion-order iteration for
    // the survivors.
    const auto i = static_cast<std::size_t>(item);
    for (std::size_t k = pos_[i] + 1; k < contents_.size(); ++k) {
      const ItemId moved = contents_[k];
      contents_[k - 1] = moved;
      pos_[static_cast<std::size_t>(moved)] =
          static_cast<std::uint32_t>(k - 1);
    }
    contents_.pop_back();
    present_[i] = 0;
    bits_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    fingerprint_ ^= zobrist_item_key(item);
  }

  // Replaces `victim` with `incoming` in one step.
  void replace(ItemId victim, ItemId incoming) {
    erase(victim);
    insert(incoming);
  }

  // Current contents in insertion order (stable across erase via swap-free
  // compaction — order of survivors is preserved).
  std::span<const ItemId> contents() const noexcept { return contents_; }

  // The smallest cached id >= `from`, or kNoItem: one step of an
  // ascending-id walk over the presence bits (std::countr_zero per word;
  // a full walk is O(catalog/64 + size)). The Figure-6 victim fast path
  // takes zero-Pr victims this way in their exact arbitration order.
  ItemId next_cached(std::size_t from) const {
    std::size_t w = from / 64;
    if (w >= bits_.size()) return kNoItem;
    std::uint64_t b = bits_[w] & (~std::uint64_t{0} << (from % 64));
    while (b == 0) {
      if (++w == bits_.size()) return kNoItem;
      b = bits_[w];
    }
    return static_cast<ItemId>(w * 64 + std::countr_zero(b));
  }

  void clear();

 private:
  void check_id(ItemId item) const {
    SKP_REQUIRE(
        item >= 0 && static_cast<std::size_t>(item) < present_.size(),
        "item " << item << " outside catalog of " << present_.size());
  }

  std::size_t capacity_;
  std::vector<ItemId> contents_;
  std::vector<char> present_;
  std::vector<std::uint64_t> bits_;  // presence, 64 items per word
  std::uint64_t fingerprint_ = 0;
  // item -> index in contents_ (meaningful only while present_); turns
  // erase's membership scan into an O(1) lookup.
  std::vector<std::uint32_t> pos_;
};

}  // namespace skp
