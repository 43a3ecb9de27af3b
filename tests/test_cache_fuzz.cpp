// Randomized differential tests: the cache substrates against trivially
// correct reference models, thousands of random operations each. The
// Zobrist content fingerprints ride along — every step checks them
// against a recompute-from-scratch model, and a fingerprint -> set map
// smoke-checks for collisions across all states the fuzz visits.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cache/cache.hpp"
#include "cache/sized_cache.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace skp {
namespace {

using testing::model_fingerprint;

// Asserts fp(cache) matches the model and records the state in the
// collision map (distinct sets must never share a fingerprint).
void check_fingerprint(std::uint64_t cache_fp, const std::set<ItemId>& model,
                       std::map<std::uint64_t, std::set<ItemId>>& seen) {
  ASSERT_EQ(cache_fp, model_fingerprint(model));
  const auto [it, inserted] = seen.emplace(cache_fp, model);
  if (!inserted) {
    ASSERT_EQ(it->second, model)
        << "distinct content sets collided on fingerprint " << cache_fp;
  }
}

// The id-order walk must yield exactly the model set, ascending, and find
// nothing past the catalog.
void check_id_walk(const SlotCache& cache, const std::set<ItemId>& model) {
  std::vector<ItemId> walked;
  for (ItemId id = cache.next_cached(0); id != kNoItem;
       id = cache.next_cached(static_cast<std::size_t>(id) + 1)) {
    ASSERT_TRUE(walked.empty() || id > walked.back())
        << "walk went back from " << walked.back() << " to " << id;
    walked.push_back(id);
  }
  ASSERT_EQ(walked, std::vector<ItemId>(model.begin(), model.end()));
  ASSERT_EQ(cache.next_cached(cache.presence().size()), kNoItem);
}

void fuzz_slot_cache(std::size_t catalog, std::size_t capacity,
                     std::uint64_t seed) {
  Rng rng(seed);
  SlotCache cache(catalog, capacity);
  std::set<ItemId> model;
  std::map<std::uint64_t, std::set<ItemId>> fp_seen;
  for (int op = 0; op < 20000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(catalog));
    switch (rng.next_below(3)) {
      case 0:  // insert if possible
        if (!model.count(item) && model.size() < capacity) {
          cache.insert(item);
          model.insert(item);
        } else {
          EXPECT_THROW(cache.insert(item), std::invalid_argument);
        }
        break;
      case 1:  // erase if present
        if (model.count(item)) {
          cache.erase(item);
          model.erase(item);
        } else {
          EXPECT_THROW(cache.erase(item), std::invalid_argument);
        }
        break;
      case 2:  // query
        EXPECT_EQ(cache.contains(item), model.count(item) > 0);
        break;
    }
    ASSERT_EQ(cache.size(), model.size());
    ASSERT_EQ(cache.full(), model.size() == capacity);
    check_fingerprint(cache.fingerprint(), model, fp_seen);
    check_id_walk(cache, model);
  }
  // Final contents agree as sets.
  std::set<ItemId> final_contents(cache.contents().begin(),
                                  cache.contents().end());
  EXPECT_EQ(final_contents, model);

  // clear() empties every view; a refill walks from a clean slate.
  cache.clear();
  model.clear();
  check_id_walk(cache, model);
  EXPECT_EQ(cache.fingerprint(), 0u);
  for (std::size_t k = 0; k < capacity; ++k) {
    const auto item = static_cast<ItemId>(catalog - 1 - 2 * k);
    cache.insert(item);
    model.insert(item);
  }
  check_id_walk(cache, model);
}

// Two inputs: a catalog inside one 64-item presence word, and one that
// spans four words with a cache large enough to populate all of them.
TEST(CacheFuzz, SlotCacheMatchesSetModel) {
  fuzz_slot_cache(30, 7, 111);
  fuzz_slot_cache(200, 40, 112);
}

TEST(CacheFuzz, SlotCacheReplacePreservesInvariants) {
  Rng rng(113);
  const std::size_t catalog = 20;
  SlotCache cache(catalog, 5);
  std::set<ItemId> model;
  // Fill.
  while (model.size() < 5) {
    const auto i = static_cast<ItemId>(rng.next_below(catalog));
    if (!model.count(i)) {
      cache.insert(i);
      model.insert(i);
    }
  }
  for (int op = 0; op < 5000; ++op) {
    const auto incoming = static_cast<ItemId>(rng.next_below(catalog));
    if (model.count(incoming)) continue;
    // Random victim from the model.
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng.next_below(model.size())));
    const ItemId victim = *it;
    cache.replace(victim, incoming);
    model.erase(victim);
    model.insert(incoming);
    ASSERT_EQ(cache.size(), 5u);
    ASSERT_TRUE(cache.contains(incoming));
    ASSERT_FALSE(cache.contains(victim));
    ASSERT_EQ(cache.fingerprint(), model_fingerprint(model));
  }
}

TEST(CacheFuzz, SizedCacheMatchesAccountingModel) {
  Rng rng(117);
  const std::size_t catalog = 25;
  std::vector<double> sizes(catalog);
  for (auto& s : sizes) s = rng.uniform(1.0, 10.0);
  const double capacity = 40.0;
  SizedCache cache(sizes, capacity);
  std::set<ItemId> model;
  std::map<std::uint64_t, std::set<ItemId>> fp_seen;
  double used = 0.0;
  for (int op = 0; op < 20000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(catalog));
    const double sz = sizes[static_cast<std::size_t>(item)];
    if (rng.bernoulli(0.5)) {
      const bool can =
          !model.count(item) && used + sz <= capacity + 1e-12;
      if (can) {
        cache.insert(item);
        model.insert(item);
        used += sz;
      } else {
        EXPECT_THROW(cache.insert(item), std::invalid_argument);
      }
    } else {
      if (model.count(item)) {
        cache.erase(item);
        model.erase(item);
        used -= sz;
      } else {
        EXPECT_THROW(cache.erase(item), std::invalid_argument);
      }
    }
    ASSERT_NEAR(cache.used(), used, 1e-6);
    ASSERT_EQ(cache.count(), model.size());
    check_fingerprint(cache.fingerprint(), model, fp_seen);
  }
}

TEST(CacheFuzz, SizedCacheFitsConsistentWithInsert) {
  Rng rng(119);
  std::vector<double> sizes(15);
  for (auto& s : sizes) s = rng.uniform(0.5, 6.0);
  SizedCache cache(sizes, 12.0);
  for (int op = 0; op < 10000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(15));
    if (cache.contains(item)) {
      cache.erase(item);
      continue;
    }
    if (cache.fits(item) && cache.cacheable(item)) {
      EXPECT_NO_THROW(cache.insert(item));
    } else {
      EXPECT_THROW(cache.insert(item), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace skp
