#include "workload/request_stream.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace skp {
namespace {

TEST(SampleCategorical, RespectsPointMass) {
  Rng rng(1);
  const std::vector<double> p{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_categorical(p, rng), 1);
  }
}

TEST(SampleCategorical, FrequenciesMatchProbabilities) {
  Rng rng(2);
  const std::vector<double> p{0.1, 0.2, 0.3, 0.4};
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sample_categorical(p, rng)];
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / n, p[j], 0.01);
  }
}

TEST(SampleCategorical, SkipsZeroProbabilityItems) {
  Rng rng(3);
  const std::vector<double> p{0.5, 0.0, 0.5};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(sample_categorical(p, rng), 1);
  }
}

TEST(SampleCategorical, RejectsDegenerateInput) {
  Rng rng(4);
  EXPECT_THROW(sample_categorical(std::vector<double>{}, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_categorical(std::vector<double>{0.0, 0.0}, rng),
               std::invalid_argument);
}

TEST(SampleCategorical, SubUnitMassStillReturnsValidItem) {
  // fp round-off fallback: mass sums to 0.9; result is a positive-P item.
  Rng rng(5);
  const std::vector<double> p{0.45, 0.45, 0.0};
  for (int i = 0; i < 1000; ++i) {
    const ItemId x = sample_categorical(p, rng);
    EXPECT_TRUE(x == 0 || x == 1);
  }
}

}  // namespace
}  // namespace skp
