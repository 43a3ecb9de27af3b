#include "cache/freq_tracker.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace skp {
namespace {

TEST(FreqTracker, ConstructionValidation) {
  EXPECT_THROW(FreqTracker(0), std::invalid_argument);
  EXPECT_NO_THROW(FreqTracker(5));
}

TEST(FreqTracker, CountsAccesses) {
  FreqTracker t(4);
  t.record(2);
  t.record(2);
  t.record(3);
  EXPECT_DOUBLE_EQ(t.frequency(2), 2.0);
  EXPECT_DOUBLE_EQ(t.frequency(3), 1.0);
  EXPECT_DOUBLE_EQ(t.frequency(0), 0.0);
  EXPECT_EQ(t.total_accesses(), 3u);
}

TEST(FreqTracker, OutOfRangeThrows) {
  FreqTracker t(4);
  EXPECT_THROW(t.record(4), std::invalid_argument);
  EXPECT_THROW(t.record(-1), std::invalid_argument);
  EXPECT_THROW(t.frequency(9), std::invalid_argument);
}

TEST(FreqTracker, DelaySavingProfit) {
  FreqTracker t(4);
  t.record(1);
  t.record(1);
  t.record(1);
  EXPECT_DOUBLE_EQ(t.delay_saving_profit(1, 10.0), 30.0);
  EXPECT_DOUBLE_EQ(t.delay_saving_profit(0, 10.0), 0.0);
}

TEST(FreqTracker, ResetClearsEverything) {
  FreqTracker t(4);
  t.record(0);
  t.record(1);
  t.reset();
  EXPECT_DOUBLE_EQ(t.frequency(0), 0.0);
  EXPECT_EQ(t.total_accesses(), 0u);
}

TEST(FreqTracker, NoDecayByDefault) {
  FreqTracker t(2);
  for (int i = 0; i < 5000; ++i) t.record(0);
  EXPECT_DOUBLE_EQ(t.frequency(0), 5000.0);
}

}  // namespace
}  // namespace skp
