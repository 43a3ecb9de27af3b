// Randomized differential tests: the cache substrates against trivially
// correct reference models, thousands of random operations each. The
// Zobrist content fingerprints ride along — every step checks them
// against a recompute-from-scratch model, and a fingerprint -> set map
// smoke-checks for collisions across all states the fuzz visits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/sized_cache.hpp"
#include "core/arbitration.hpp"
#include "sim/resident_set.hpp"
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

// ---- The resident book's LFU/DS eviction order --------------------------

// The residents by descending (sub score, id), scored as choose_victim
// scores them: the order the book must keep after every operation.
std::vector<ItemId> model_order(const ResidentSet<SlotCache>& book,
                                std::span<const double> r,
                                SubArbitration sub) {
  std::vector<ItemId> want(book.cache().contents().begin(),
                           book.cache().contents().end());
  const auto score = [&](ItemId i) {
    return sub == SubArbitration::DS
               ? book.freq().delay_saving_profit(
                     i, r[static_cast<std::size_t>(i)])
               : book.freq().frequency(i);
  };
  std::sort(want.begin(), want.end(), [&](ItemId a, ItemId b) {
    const double sa = score(a);
    const double sb = score(b);
    return sa != sb ? sa > sb : a > b;
  });
  return want;
}

// A victim row with zero entries and ties (small integer weights), or a
// dense one with continuous weights.
std::vector<double> victim_row(Rng& rng, std::size_t n) {
  const bool dense = rng.next_below(4) == 0;
  std::vector<double> P(n, 0.0);
  for (double& p : P) {
    if (dense) {
      p = rng.uniform(0.1, 1.0);
    } else if (rng.next_below(3) == 0) {
      p = static_cast<double>(rng.uniform_int(1, 3));
    }
  }
  double sum = 0.0;
  for (const double p : P) sum += p;
  if (sum > 0.0) {
    for (double& p : P) p /= sum;
  }
  return P;
}

// Random execute (some deliveries abandoned), view, admit_demand and
// flush calls on one book; after each, the kept order equals the sorted
// residents (under LFU/DS; without sub-arbitration none is kept), and
// each demand miss evicts choose_victim's pick.
void fuzz_resident_book(SubArbitration sub, std::size_t catalog,
                        std::size_t capacity, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> r(catalog);
  for (double& x : r) x = static_cast<double>(rng.uniform_int(1, 4));
  ArbitrationConfig arb;
  arb.sub = sub;
  ResidentSet<SlotCache> book(SlotCache(catalog, capacity), r, arb);
  SimMetrics metrics;
  std::size_t demand_victims = 0;
  std::size_t abandoned = 0;
  const auto non_resident = [&] {
    ItemId item = kNoItem;
    do {
      item = static_cast<ItemId>(rng.next_below(catalog));
    } while (book.cache().contains(item));
    return item;
  };
  for (int op = 0; op < 6000; ++op) {
    SimMetrics* const m = rng.next_below(2) == 0 ? &metrics : nullptr;
    const std::uint64_t kind = rng.next_below(20);
    if (kind < 6) {
      // A plan of up to `capacity` fetches; its victims are distinct
      // residents, one for each fetch that finds the cache full.
      StoredPlan plan;
      const std::size_t k = 1 + rng.next_below(capacity);
      while (plan.fetch.size() < k) {
        const ItemId f = non_resident();
        if (std::find(plan.fetch.begin(), plan.fetch.end(), f) ==
            plan.fetch.end()) {
          plan.fetch.push_back(f);
        }
      }
      std::vector<ItemId> residents(book.cache().contents().begin(),
                                    book.cache().contents().end());
      rng.shuffle(residents);
      residents.resize(std::min(k, residents.size()));
      plan.evict = residents;
      book.execute(plan, m, [&](ItemId) {
        const bool arrived = rng.next_below(4) != 0;
        if (!arrived) ++abandoned;
        return arrived;
      });
    } else if (kind < 13) {
      book.view(static_cast<ItemId>(rng.next_below(catalog)));
    } else if (kind < 19) {
      const ItemId item = non_resident();
      const std::vector<double> P = victim_row(rng, catalog);
      const InstanceView row(P, r, 1.0);
      ItemId want = kNoItem;
      if (book.cache().full()) {
        want = choose_victim(row, book.cache().contents(), &book.freq(),
                             arb);
      }
      book.admit_demand(item, m, [&] { return row; });
      ASSERT_TRUE(book.cache().contains(item));
      if (want != kNoItem) {
        ASSERT_FALSE(book.cache().contains(want)) << "op " << op;
        ++demand_victims;
      }
    } else {
      book.flush(m);
    }
    const std::optional<std::span<const ItemId>> kept =
        book.eviction_order();
    if (sub == SubArbitration::None) {
      ASSERT_FALSE(kept.has_value());
      continue;
    }
    ASSERT_TRUE(kept.has_value());
    ASSERT_EQ(std::vector<ItemId>(kept->begin(), kept->end()),
              model_order(book, r, sub))
        << "op " << op;
  }
  EXPECT_GT(demand_victims, 500u);
  EXPECT_GT(abandoned, 100u);
}

// A small catalog keeps frequencies tied (LFU's integer counts tie
// often); a larger one spreads the book over tens of residents.
TEST(CacheFuzz, ResidentBookKeepsLfuOrder) {
  fuzz_resident_book(SubArbitration::LFU, 12, 6, 121);
  fuzz_resident_book(SubArbitration::LFU, 100, 40, 122);
}

TEST(CacheFuzz, ResidentBookKeepsDsOrder) {
  fuzz_resident_book(SubArbitration::DS, 12, 6, 123);
  fuzz_resident_book(SubArbitration::DS, 100, 40, 124);
}

// Without sub-arbitration a demand miss walks the presence bits in
// ascending id order; the catalogs put residents on both sides of each
// 64-item word boundary, and victim_row's dense rows, with no zero-Pr
// resident, send the miss to the scan of the whole cache.
TEST(CacheFuzz, ResidentBookWalksPresenceWithoutSub) {
  std::uint64_t seed = 125;
  for (const std::size_t catalog : {12u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE("catalog " + std::to_string(catalog));
    fuzz_resident_book(SubArbitration::None, catalog, catalog / 2, seed++);
    if (HasFatalFailure()) return;
  }
}

// Without sub-arbitration, and on a sized cache, no order is kept.
TEST(CacheFuzz, ResidentBookKeepsNoOrderWithoutSubArbitration) {
  const std::vector<double> r(10, 1.0);
  ArbitrationConfig arb;
  EXPECT_FALSE(ResidentSet<SlotCache>(SlotCache(10, 3), r, arb)
                   .eviction_order()
                   .has_value());
  arb.sub = SubArbitration::LFU;
  EXPECT_FALSE(ResidentSet<SizedCache>(SizedCache(r, 5.0), r, arb)
                   .eviction_order()
                   .has_value());
}

}  // namespace
}  // namespace skp
