#include "core/arbitration.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace skp {
namespace {

// small_instance profits: {5, 6, .75, .4}.

TEST(ChooseVictim, PicksMinimalPr) {
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cached{0, 1, 2, 3};
  const ItemId v = choose_victim(inst, cached, nullptr, {});
  EXPECT_EQ(v, 3);  // P*r = .4 is the smallest
}

TEST(ChooseVictim, SingleCandidate) {
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cached{1};
  EXPECT_EQ(choose_victim(inst, cached, nullptr, {}), 1);
}

TEST(ChooseVictim, EmptyCacheThrows) {
  const Instance inst = testing::small_instance();
  EXPECT_THROW(choose_victim(inst, {}, nullptr, {}),
               std::invalid_argument);
}

TEST(ChooseVictim, PrTieBrokenByLowestIdWithoutSub) {
  Instance inst;
  inst.P = {0.25, 0.25, 0.5};
  inst.r = {4.0, 4.0, 2.0};
  inst.v = 10.0;
  const std::vector<ItemId> cached{1, 0};  // both Pr = 1.0
  EXPECT_EQ(choose_victim(inst, cached, nullptr, {}), 0);
}

TEST(ChooseVictim, LfuSubArbitrationPrefersLeastFrequent) {
  Instance inst;
  inst.P = {0.25, 0.25, 0.5};
  inst.r = {4.0, 4.0, 2.0};
  inst.v = 10.0;
  FreqTracker freq(3);
  freq.record(0);
  freq.record(0);
  freq.record(1);
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::LFU;
  const std::vector<ItemId> cached{0, 1};
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 1);
}

TEST(ChooseVictim, DsSubArbitrationUsesDelaySavingProfit) {
  // Equal Pr and equal frequency, but different r: DS evicts the one with
  // the smaller freq * r (cheaper to re-fetch).
  Instance inst;
  inst.P = {0.2, 0.1, 0.7};
  inst.r = {5.0, 10.0, 1.0};  // Pr: 1.0, 1.0, .7
  inst.v = 10.0;
  FreqTracker freq(3);
  freq.record(0);
  freq.record(1);
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  const std::vector<ItemId> cached{0, 1};
  // DS: item0 = 1*5 = 5, item1 = 1*10 = 10 -> evict 0.
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 0);
}

TEST(ChooseVictim, SubArbitrationOnlyAppliesToPrTies) {
  // Item with strictly smaller Pr wins regardless of frequency.
  const Instance inst = testing::small_instance();
  FreqTracker freq(4);
  for (int i = 0; i < 10; ++i) freq.record(3);  // very popular
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::LFU;
  const std::vector<ItemId> cached{2, 3};
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 3);  // min Pr still
}

TEST(ChooseVictim, SubArbitrationRequiresTracker) {
  const Instance inst = testing::small_instance();
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  const std::vector<ItemId> cached{0, 1};
  EXPECT_THROW(choose_victim(inst, cached, nullptr, cfg),
               std::invalid_argument);
}

TEST(ChooseVictim, DsTieFallsBackToLowestId) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {4.0, 4.0};
  inst.v = 10.0;
  FreqTracker freq(2);  // both frequency 0
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  const std::vector<ItemId> cached{1, 0};
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 0);
}

TEST(AdmitsPrefetch, ListingRuleAdmitsTies) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {4.0, 4.0};  // equal profits
  inst.v = 10.0;
  EXPECT_TRUE(admits_prefetch(inst, 0, 1));
}

TEST(AdmitsPrefetch, HigherProfitAlwaysAdmitted) {
  const Instance inst = testing::small_instance();
  EXPECT_TRUE(admits_prefetch(inst, 0, 3));   // 5 vs .4
  EXPECT_FALSE(admits_prefetch(inst, 3, 0));  // .4 vs 5
}

}  // namespace
}  // namespace skp
