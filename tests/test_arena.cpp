// Bit-identity and fuzz coverage for the arena substrate (util/arena.hpp)
// and the structures rebuilt on top of it.
//
// The refactor's contract is that moving the LZ78/PPM tries and the
// PlanCache onto index-based arena storage changed WHERE the bytes live,
// never WHAT any call returns. These suites pin that directly: map-based
// reference implementations of the exact published algorithms — the
// shape the pointer-chasing predecessors had — are run in lockstep with
// the arena versions and must agree to the last bit on every prediction
// and every lookup. The fuzz passes run under the sanitize CI job, so
// index-recycling bugs (stale Edge references across a pool growth, probe
// runs past a table resize) surface as asan/ubsan reports, not silent
// corruption.
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "predict/lz78_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "core/plan_cache.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace skp {
namespace {

TEST(PoolArena, IndexOrderIsAllocationOrder) {
  PoolArena<int> pool;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.alloc(i * 7), static_cast<std::uint32_t>(i));
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool[i], static_cast<int>(i) * 7);
  }
  const std::size_t footprint = pool.footprint_bytes();
  pool.clear();
  EXPECT_TRUE(pool.empty());
  // clear() recycles capacity for the next session phase.
  EXPECT_EQ(pool.footprint_bytes(), footprint);
}

TEST(Key64Map, MatchesUnorderedMapUnderFuzz) {
  Rng rng(2024);
  Key64Map map;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::vector<std::uint64_t> keys;  // insertion order, for lookups

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20'000; ++i) {
      // Small-ish key space so collisions and repeat-lookups both occur;
      // keys must be nonzero (Key64Map's empty marker).
      const std::uint64_t key = (rng.next_u64() % 60'000) + 1;
      auto [it, fresh] = ref.try_emplace(key,
                                         static_cast<std::uint32_t>(i));
      if (fresh) {
        map.insert(key, it->second);
        keys.push_back(key);
      }
      // Lookup of a key that may or may not exist.
      const std::uint64_t probe_key = (rng.next_u64() % 90'000) + 1;
      const auto ref_it = ref.find(probe_key);
      const std::uint32_t expected =
          ref_it == ref.end() ? Key64Map::kNotFound : ref_it->second;
      EXPECT_EQ(map.find(probe_key), expected);
    }
    EXPECT_EQ(map.size(), ref.size());
    for (const std::uint64_t key : keys) {
      EXPECT_EQ(map.find(key), ref.at(key));
    }
    map.clear();
    ref.clear();
    keys.clear();
    EXPECT_EQ(map.find(1), Key64Map::kNotFound);
  }
}

TEST(StablePool, AddressesSurviveLaterAllocations) {
  StablePool<std::uint32_t> pool;
  Rng rng(7);
  std::vector<std::pair<std::uint32_t*, std::size_t>> blocks;
  std::size_t stamp = 1;
  for (int i = 0; i < 2'000; ++i) {
    // Sizes straddle the chunk-growth boundary, including oversized
    // blocks that force a dedicated chunk.
    const std::size_t n = 1 + rng.next_u64() % 300;
    std::uint32_t* block = pool.alloc(n);
    ASSERT_NE(block, nullptr);
    for (std::size_t j = 0; j < n; ++j) {
      block[j] = static_cast<std::uint32_t>(stamp + j);
    }
    blocks.emplace_back(block, n);
    stamp += n;
  }
  EXPECT_EQ(pool.alloc(0), nullptr);
  // Every block written earlier must still hold its pattern — no chunk
  // was moved or reused by later allocations.
  stamp = 1;
  for (const auto& [block, n] : blocks) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(block[j], static_cast<std::uint32_t>(stamp + j));
    }
    stamp += n;
  }
}

// ---------------------------------------------------------------------
// Map-based LZ78 reference: the algorithm the arena trie replaced, with
// one unordered_map of (child, count) per node. Same phrase rule, same
// escape arithmetic, same normalization order.
class Lz78Reference {
 public:
  explicit Lz78Reference(std::size_t n) : n_(n), nodes_(1) {
    marginal_.assign(n, 0);
  }

  void observe(ItemId item) {
    Node& cur = nodes_[current_];
    ++cur.total;
    ++marginal_[static_cast<std::size_t>(item)];
    ++total_;
    if (auto it = cur.edges.find(item); it != cur.edges.end()) {
      ++it->second.count;
      current_ = it->second.child;
      return;
    }
    const std::size_t id = nodes_.size();
    nodes_.emplace_back();
    nodes_[current_].edges.emplace(item, EdgeRef{id, 1});
    current_ = 0;
  }

  void predict_into(std::vector<double>& p) const {
    p.assign(n_, 0.0);
    if (total_ == 0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
      return;
    }
    std::vector<double> base(n_);
    const double denom =
        static_cast<double>(total_) + static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      base[i] = (static_cast<double>(marginal_[i]) + 1.0) / denom;
    }
    const Node& cur = nodes_[current_];
    if (cur.total == 0) {
      p.assign(base.begin(), base.end());
      return;
    }
    const double distinct = static_cast<double>(cur.edges.size());
    const double esc =
        distinct / (static_cast<double>(cur.total) + distinct);
    for (const auto& [sym, edge] : cur.edges) {
      p[static_cast<std::size_t>(sym)] =
          (1.0 - esc) * static_cast<double>(edge.count) /
          static_cast<double>(cur.total);
    }
    for (std::size_t i = 0; i < n_; ++i) p[i] += esc * base[i];
    double sum = 0.0;
    for (const double x : p) sum += x;
    for (double& x : p) x /= sum;
  }

 private:
  struct EdgeRef {
    std::size_t child;
    std::uint64_t count;
  };
  struct Node {
    std::unordered_map<ItemId, EdgeRef> edges;
    std::uint64_t total = 0;
  };
  std::size_t n_;
  std::vector<Node> nodes_;
  std::size_t current_ = 0;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
};

TEST(Lz78Arena, BitIdenticalToMapReference) {
  constexpr std::size_t kN = 40;
  // A sticky random walk, so contexts actually recur and the tree
  // deepens, and an i.i.d. uniform stream, whose phrases start with
  // every symbol, so the root's dense index fills up.
  for (const bool sticky : {true, false}) {
    SCOPED_TRACE(sticky ? "sticky walk" : "i.i.d. uniform");
    Lz78Predictor arena(kN);
    Lz78Reference ref(kN);
    Rng rng(99);
    std::vector<double> pa, pr;
    ItemId prev = 0;
    for (int step = 0; step < 8'000; ++step) {
      const ItemId item =
          (sticky && rng.next_u64() % 4 != 0)
              ? static_cast<ItemId>((static_cast<std::uint64_t>(prev) +
                                     1 + rng.next_u64() % 3) % kN)
              : static_cast<ItemId>(rng.next_u64() % kN);
      arena.observe(item);
      ref.observe(item);
      prev = item;
      if (step % 37 == 0) {
        arena.predict_into(pa);
        ref.predict_into(pr);
        ASSERT_EQ(pa.size(), pr.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
          // Exact — not near: the arena trie must preserve the
          // arithmetic to the last bit.
          ASSERT_EQ(pa[i], pr[i]) << "step " << step << " item " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Map-based PPM reference: per order, context key -> (total, successor
// counts). The blend touches each non-excluded symbol exactly once per
// order with order-independent integer sums, so iteration order (map vs
// arena edge list) cannot change the doubles.
class PpmReference {
 public:
  PpmReference(std::size_t n, std::size_t order)
      : n_(n), order_(order), tables_(order) {
    marginal_.assign(n, 0);
  }

  void observe(ItemId item) {
    for (std::size_t len = 1; len <= std::min(order_, history_.size());
         ++len) {
      Ctx& ctx = tables_[len - 1][key_of(len)];
      ++ctx.total;
      ++ctx.counts[item];
    }
    ++marginal_[static_cast<std::size_t>(item)];
    ++total_;
    history_.push_back(item);
    if (history_.size() > order_) history_.pop_front();
  }

  void predict_into(std::vector<double>& p) const {
    p.assign(n_, 0.0);
    double remaining = 1.0;
    std::vector<char> excluded(n_, 0);
    for (std::size_t len = std::min(order_, history_.size()); len >= 1;
         --len) {
      const auto it = tables_[len - 1].find(key_of(len));
      if (it == tables_[len - 1].end() || it->second.total == 0) continue;
      const Ctx& ctx = it->second;
      std::uint64_t total = 0, distinct = 0;
      for (const auto& [sym, count] : ctx.counts) {
        if (excluded[static_cast<std::size_t>(sym)]) continue;
        total += count;
        ++distinct;
      }
      if (total == 0) continue;
      const double denom = static_cast<double>(total + distinct);
      for (const auto& [sym, count] : ctx.counts) {
        const auto s = static_cast<std::size_t>(sym);
        if (excluded[s]) continue;
        p[s] += remaining * static_cast<double>(count) / denom;
        excluded[s] = 1;
      }
      remaining *= static_cast<double>(distinct) / denom;
    }
    std::uint64_t marg_total = 0;
    std::size_t open = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!excluded[i]) {
        marg_total += marginal_[i];
        ++open;
      }
    }
    if (open > 0) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (excluded[i]) continue;
        const double base =
            marg_total > 0 ? static_cast<double>(marginal_[i]) /
                                 static_cast<double>(marg_total)
                           : 1.0 / static_cast<double>(open);
        const double uniform = 1.0 / static_cast<double>(open);
        p[i] += remaining * (0.9 * base + 0.1 * uniform);
      }
    }
    double sum = 0.0;
    for (const double x : p) sum += x;
    if (sum <= 0.0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
      return;
    }
    for (double& x : p) x /= sum;
  }

 private:
  struct Ctx {
    std::uint64_t total = 0;
    std::map<ItemId, std::uint64_t> counts;
  };
  std::uint64_t key_of(std::size_t len) const {
    std::uint64_t key = 1;
    const std::uint64_t base = static_cast<std::uint64_t>(n_) + 1;
    for (std::size_t i = history_.size() - len; i < history_.size(); ++i) {
      key = key * base + static_cast<std::uint64_t>(history_[i]) + 1;
    }
    return key;
  }
  std::size_t n_;
  std::size_t order_;
  std::vector<std::unordered_map<std::uint64_t, Ctx>> tables_;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
  std::deque<ItemId> history_;
};

TEST(PpmArena, BitIdenticalToMapReference) {
  constexpr std::size_t kN = 30;
  PpmPredictor arena(kN, 3);
  PpmReference ref(kN, 3);
  Rng rng(4242);
  std::vector<double> pa, pr;
  ItemId prev = 0;
  for (int step = 0; step < 6'000; ++step) {
    const ItemId item =
        (rng.next_u64() % 5 != 0)
            ? static_cast<ItemId>((static_cast<std::uint64_t>(prev) +
                                   1 + rng.next_u64() % 4) % kN)
            : static_cast<ItemId>(rng.next_u64() % kN);
    arena.observe(item);
    ref.observe(item);
    prev = item;
    if (step % 41 == 0) {
      arena.predict_into(pa);
      ref.predict_into(pr);
      ASSERT_EQ(pa.size(), pr.size());
      for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i], pr[i]) << "step " << step << " item " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------
// LRU-map PlanCache reference: std::list + unordered_map, the textbook
// shape the index-linked pool replaced. Fuzzes find/insert (plus
// generation bumps) and requires identical hit/miss answers, payloads,
// eviction behavior, and stats — on a capacity small enough to keep
// evictions constant and a key space small enough to keep hits frequent.
class PlanCacheReference {
 public:
  explicit PlanCacheReference(std::size_t capacity) : capacity_(capacity) {}

  const double* find(std::uint64_t state, std::uint64_t fp) {
    const Key key{state, fp, generation_};
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->payload;
  }

  void insert(std::uint64_t state, std::uint64_t fp, double payload) {
    const Key key{state, fp, generation_};
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->payload = payload;
      ++stats_.inserts;
      return;
    }
    if (lru_.size() >= capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(Entry{key, payload});
    map_[key] = lru_.begin();
    ++stats_.inserts;
  }

  void bump_generation() { ++generation_; }
  const PlanCacheStats& stats() const { return stats_; }

 private:
  struct Key {
    std::uint64_t state, fp, generation;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t x = k.state * 0x9e3779b97f4a7c15ULL ^
                        k.fp * 0xbf58476d1ce4e5b9ULL ^
                        k.generation * 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<std::size_t>(x);
    }
  };
  struct Entry {
    Key key;
    double payload;
  };
  std::size_t capacity_;
  std::uint64_t generation_ = 0;
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  PlanCacheStats stats_;
};

TEST(PlanCacheArena, MatchesLruMapReferenceUnderFuzz) {
  constexpr std::size_t kCapacity = 64;
  PlanCache cache(/*config_digest=*/0xabcdef, kCapacity);
  PlanCacheReference ref(kCapacity);
  Rng rng(31337);

  for (int op = 0; op < 60'000; ++op) {
    const std::uint64_t state = rng.next_u64() % 150;
    const std::uint64_t fp = rng.next_u64() % 4;
    const std::uint64_t roll = rng.next_u64() % 100;
    if (roll < 55) {
      const StoredPlan* got = cache.find(state, fp);
      const double* want = ref.find(state, fp);
      ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(got->predicted_g, *want) << "op " << op;
      }
    } else if (roll < 98) {
      const double payload = static_cast<double>(rng.next_u64() % 1'000);
      StoredPlan* slot = cache.insert(state, fp);
      ASSERT_NE(slot, nullptr);  // no doorkeeper, no freeze
      slot->predicted_g = payload;
      ref.insert(state, fp, payload);
    } else {
      cache.bump_generation();
      ref.bump_generation();
    }
    ASSERT_LE(cache.size(), kCapacity);
  }
  EXPECT_EQ(cache.stats().hits, ref.stats().hits);
  EXPECT_EQ(cache.stats().misses, ref.stats().misses);
  EXPECT_EQ(cache.stats().inserts, ref.stats().inserts);
  EXPECT_EQ(cache.stats().evictions, ref.stats().evictions);
}

// Lazy probe-table growth must be observation-free: a cache that grew
// through every doubling returns exactly what a fresh cache with the
// same final contents does.
TEST(PlanCacheArena, LazyTableGrowthIsInvisible) {
  PlanCache grown(1, /*capacity=*/4096);
  for (std::uint64_t k = 0; k < 3'000; ++k) {
    grown.insert(k, k * 17)->predicted_g = static_cast<double>(k);
  }
  for (std::uint64_t k = 0; k < 3'000; ++k) {
    const StoredPlan* plan = grown.find(k, k * 17);
    ASSERT_NE(plan, nullptr) << "key " << k;
    ASSERT_EQ(plan->predicted_g, static_cast<double>(k));
  }
  EXPECT_EQ(grown.stats().hits, 3'000u);
  EXPECT_EQ(grown.stats().misses, 0u);
}

}  // namespace
}  // namespace skp
