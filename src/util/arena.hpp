// Pool/arena allocation substrate for the million-session capacity work.
//
// The real per-session memory hogs are pointer-chased node structures:
// the LZ78/PPM tries used one std::unordered_map per trie node (hundreds
// of bytes of bucket arrays and heap nodes to store a handful of edges),
// and the canonical-order table one pair of vectors per state. These
// three building blocks replace that with contiguous, 32-bit-index-based
// storage:
//
//  * PoolArena<T>    — a growable contiguous pool addressed by 32-bit
//                      indices. Allocation order IS index order, so a
//                      structure that appends in insertion order keeps
//                      exactly the iteration order of the code it
//                      replaces (the bit-identity anchor for the arena
//                      predictor tries).
//  * Key64Map        — an open-addressing u64 -> u32 map with lazy,
//                      load-factor-0.5 growth. Keys must be nonzero
//                      (zero marks empty slots); lookups are one linear
//                      probe run over a flat array.
//  * StablePool<T>   — chunked block storage whose addresses never move
//                      once allocated (no element destructors run until
//                      the pool dies). Backs span-handing structures —
//                      CanonicalOrderTable rows — where a rebuild of one
//                      row must not invalidate spans into another.
//
// None of these are thread-safe; they are per-session state like the
// structures they back.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace skp {

// Contiguous pool of T addressed by 32-bit indices. Index 0xffffffff is
// the null sentinel (kNull), so intrusive linked structures over the pool
// need no out-of-band "no next" flag.
template <typename T>
class PoolArena {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNull = 0xffffffffu;

  Index alloc(T value) {
    SKP_REQUIRE(items_.size() < kNull, "PoolArena exhausted 32-bit indices");
    const Index idx = static_cast<Index>(items_.size());
    items_.push_back(std::move(value));
    return idx;
  }

  T& operator[](Index idx) { return items_[idx]; }
  const T& operator[](Index idx) const { return items_[idx]; }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }  // keeps capacity for reuse
  void reserve(std::size_t n) { items_.reserve(n); }

  // Heap bytes currently held (capacity, not size — what the process
  // actually pays for).
  std::size_t footprint_bytes() const noexcept {
    return items_.capacity() * sizeof(T);
  }

 private:
  std::vector<T> items_;
};

// Open-addressing u64 -> u32 hash map with linear probing and lazy
// geometric growth at load factor 1/2. Keys must be NONZERO — key 0 is
// the empty-slot marker. Values are caller-managed 32-bit handles
// (PoolArena indices). No deletion: the backing structures only ever
// grow between explicit clear()s, exactly like the unordered_maps they
// replace.
class Key64Map {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  // kNotFound when absent.
  std::uint32_t find(std::uint64_t key) const noexcept {
    if (slots_.empty()) return kNotFound;
    std::size_t slot = static_cast<std::size_t>(mix(key)) & mask_;
    while (slots_[slot].key != 0) {
      if (slots_[slot].key == key) return slots_[slot].value;
      slot = (slot + 1) & mask_;
    }
    return kNotFound;
  }

  // Inserts key -> value; the key must not be present yet.
  void insert(std::uint64_t key, std::uint32_t value) {
    SKP_ASSERT(key != 0);
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t slot = static_cast<std::size_t>(mix(key)) & mask_;
    while (slots_[slot].key != 0) {
      SKP_ASSERT(slots_[slot].key != key);
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = {key, value};
    ++size_;
  }

  std::size_t size() const noexcept { return size_; }
  void clear() noexcept {
    slots_.clear();
    slots_.shrink_to_fit();
    mask_ = 0;
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
  };

  // SplitMix64 finalizer: the PPM context keys are positional encodings
  // (highly structured), so a full mix pass is what keeps probe runs
  // short.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void grow() {
    const std::size_t next = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(next, Slot{});
    mask_ = next - 1;
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      std::size_t slot = static_cast<std::size_t>(mix(s.key)) & mask_;
      while (slots_[slot].key != 0) slot = (slot + 1) & mask_;
      slots_[slot] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// Chunked storage with stable addresses: alloc(n) returns a pointer to n
// default-constructed Ts that stays valid until the pool is destroyed.
// There is no per-allocation free — callers reuse their block in place
// when a rebuild fits (CanonicalOrderTable rows), and abandoned blocks
// are bounded by the structure's own size limits.
template <typename T>
class StablePool {
 public:
  T* alloc(std::size_t n) {
    if (n == 0) return nullptr;
    if (chunks_.empty() || used_ + n > chunks_.back().size) {
      const std::size_t cap = std::max(n, next_chunk_);
      chunks_.push_back({std::make_unique<T[]>(cap), cap});
      next_chunk_ = std::min(cap * 2, kMaxChunk);
      used_ = 0;
    }
    T* out = chunks_.back().data.get() + used_;
    used_ += n;
    return out;
  }

 private:
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 16;
  struct Chunk {
    std::unique_ptr<T[]> data;
    std::size_t size;
  };
  std::vector<Chunk> chunks_;
  std::size_t next_chunk_ = 64;
  std::size_t used_ = 0;
};

}  // namespace skp
