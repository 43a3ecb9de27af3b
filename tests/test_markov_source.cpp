#include "workload/markov_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "workload/adversarial_source.hpp"
#include "workload/zipf_source.hpp"

namespace skp {
namespace {

MarkovSourceConfig small_config() {
  MarkovSourceConfig cfg;
  cfg.n_states = 20;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 6;
  return cfg;
}

TEST(MarkovSource, PaperDefaultsMatchFig7Caption) {
  const MarkovSourceConfig cfg;
  EXPECT_EQ(cfg.n_states, 100u);
  EXPECT_EQ(cfg.out_degree_lo, 10u);
  EXPECT_EQ(cfg.out_degree_hi, 20u);
  EXPECT_DOUBLE_EQ(cfg.v_lo, 1.0);
  EXPECT_DOUBLE_EQ(cfg.v_hi, 100.0);
  EXPECT_DOUBLE_EQ(cfg.r_lo, 1.0);
  EXPECT_DOUBLE_EQ(cfg.r_hi, 30.0);
}

TEST(MarkovSource, RejectsDegenerateConfigs) {
  Rng rng(1);
  MarkovSourceConfig cfg;
  cfg.n_states = 1;
  EXPECT_THROW(MarkovSource(cfg, rng), std::invalid_argument);
  cfg = MarkovSourceConfig{};
  cfg.out_degree_lo = 0;
  EXPECT_THROW(MarkovSource(cfg, rng), std::invalid_argument);
  cfg = MarkovSourceConfig{};
  cfg.out_degree_lo = 5;
  cfg.out_degree_hi = 3;
  EXPECT_THROW(MarkovSource(cfg, rng), std::invalid_argument);
}

TEST(MarkovSource, TimesWithinConfiguredRanges) {
  Rng rng(2);
  const MarkovSource src(MarkovSourceConfig{}, rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    EXPECT_GE(src.viewing_time(s), 1.0);
    EXPECT_LE(src.viewing_time(s), 100.0);
    EXPECT_GE(src.retrieval_time(static_cast<ItemId>(s)), 1.0);
    EXPECT_LE(src.retrieval_time(static_cast<ItemId>(s)), 30.0);
  }
}

TEST(MarkovSource, IntegerTimesAreIntegral) {
  Rng rng(3);
  const MarkovSource src(MarkovSourceConfig{}, rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    const double v = src.viewing_time(s);
    EXPECT_DOUBLE_EQ(v, std::floor(v));
  }
}

TEST(MarkovSource, OutDegreesWithinBounds) {
  Rng rng(4);
  const MarkovSource src(MarkovSourceConfig{}, rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    const auto succ = src.successors(s);
    EXPECT_GE(succ.size(), 10u);
    EXPECT_LE(succ.size(), 20u);
  }
}

TEST(MarkovSource, RowsAreProbabilityDistributions) {
  Rng rng(5);
  MarkovSource src(small_config(), rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    const auto row = src.view_at(s).P;
    double sum = 0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MarkovSource, NoSelfLoopsByDefault) {
  Rng rng(6);
  MarkovSource src(small_config(), rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    EXPECT_DOUBLE_EQ(src.view_at(s).P[s], 0.0);
  }
}

TEST(MarkovSource, SuccessorsMatchDenseRow) {
  Rng rng(8);
  MarkovSource src(small_config(), rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    const auto row = src.view_at(s).P;
    std::set<ItemId> from_row;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j] > 0.0) from_row.insert(static_cast<ItemId>(j));
    }
    const auto succ = src.successors(s);
    const std::set<ItemId> from_succ(succ.begin(), succ.end());
    EXPECT_EQ(from_row, from_succ);
  }
}

TEST(MarkovSource, StepOnlyReachesSuccessors) {
  Rng rng(9);
  MarkovSource src(small_config(), rng);
  Rng walk(10);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t before = src.current_state();
    const std::size_t after = src.step(walk);
    const auto succ = src.successors(before);
    EXPECT_NE(std::find(succ.begin(), succ.end(),
                        static_cast<ItemId>(after)),
              succ.end());
    EXPECT_EQ(after, src.current_state());
  }
}

TEST(MarkovSource, StepFrequenciesTrackProbabilities) {
  Rng rng(11);
  MarkovSource src(small_config(), rng);
  src.teleport(0);
  const auto row = src.view_at(0).P;
  std::vector<int> counts(src.n_states(), 0);
  Rng walk(12);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    src.teleport(0);
    ++counts[src.step(walk)];
  }
  for (std::size_t j = 0; j < src.n_states(); ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / trials, row[j], 0.01);
  }
}

TEST(MarkovSource, TeleportValidation) {
  Rng rng(13);
  MarkovSource src(small_config(), rng);
  EXPECT_THROW(src.teleport(99), std::invalid_argument);
  src.teleport(5);
  EXPECT_EQ(src.current_state(), 5u);
}

TEST(MarkovSource, InstanceAtMatchesRowAndTimes) {
  Rng rng(14);
  MarkovSource src(small_config(), rng);
  const Instance inst = src.instance_at(3);
  EXPECT_NO_THROW(inst.validate());
  EXPECT_EQ(inst.n(), src.n_states());
  EXPECT_DOUBLE_EQ(inst.v, src.viewing_time(3));
  const auto row = src.view_at(3).P;
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_DOUBLE_EQ(inst.P[j], row[j]);
    EXPECT_DOUBLE_EQ(inst.r[j],
                     src.retrieval_time(static_cast<ItemId>(j)));
  }
}

TEST(MarkovSource, DeterministicInSeed) {
  Rng rng1(15), rng2(15);
  MarkovSource a(small_config(), rng1);
  MarkovSource b(small_config(), rng2);
  for (std::size_t s = 0; s < a.n_states(); ++s) {
    EXPECT_DOUBLE_EQ(a.viewing_time(s), b.viewing_time(s));
    const auto ra = a.view_at(s).P;
    const auto rb = b.view_at(s).P;
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_DOUBLE_EQ(ra[j], rb[j]);
    }
  }
}

// The row view_at hands out is the chain's successor scatter of `state`
// bit for bit, and the bit pattern of +0.0 everywhere else.
void expect_row_is_scatter(const MarkovSource& src, const InstanceView& view,
                           std::size_t state, const char* name,
                           const char* step) {
  const MarkovChain& chain = src.chain();
  std::vector<std::uint64_t> want(chain.n_states(), 0);
  const auto succ = chain.successors(state);
  const auto prob = chain.probabilities(state);
  for (std::size_t k = 0; k < succ.size(); ++k) {
    want[static_cast<std::size_t>(succ[k])] =
        std::bit_cast<std::uint64_t>(prob[k]);
  }
  ASSERT_EQ(view.P.size(), want.size()) << name << " " << step;
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(view.P[j]), want[j])
        << name << " " << step << ": state " << state << ", entry " << j;
  }
  EXPECT_EQ(view.v, chain.viewing_time(state)) << name << " " << step;
  EXPECT_EQ(view.r.data(), chain.retrieval_times().data());
}

TEST(MarkovSource, ViewAtRowIsTheChainScatterBitForBit) {
  struct RowCase {
    const char* name;
    std::function<MarkovChain(Rng&)> make;
    bool drifts;  // redraw_transitions between the two sequences
  };
  const MarkovSourceConfig markov = small_config();
  ZipfSourceConfig zipf;
  zipf.n_items = 20;
  AdversarialSourceConfig adversarial;
  adversarial.n_items = 20;
  adversarial.hot_set = 6;
  const RowCase cases[] = {
      {"markov", [&](Rng& rng) { return MarkovChain(markov, rng); }, false},
      {"zipf", [&](Rng& rng) { return make_zipf_chain(zipf, rng); }, false},
      {"adversarial",
       [&](Rng& rng) { return make_adversarial_chain(adversarial, rng); },
       false},
      {"drifted", [&](Rng& rng) { return MarkovChain(markov, rng); }, true},
  };
  for (const RowCase& c : cases) {
    Rng build(17);
    MarkovSource src(c.make(build));
    Rng drift(18);
    // s, t and s again (a held state's view scatters nothing, another
    // state's clears the held one first), twice, with the chain redrawn
    // in between when it drifts. The redraw happens while the row holds
    // s, and the next view asks for s: it must clear the row under the
    // old successor list and forget that it held s.
    for (const char* round : {"first", "second"}) {
      for (const std::size_t state : {3, 11, 3, 3, 0, 11, 3}) {
        expect_row_is_scatter(src, src.view_at(state), state, c.name, round);
      }
      if (c.drifts) src.redraw_transitions(markov, drift);
    }
    // One row backs every view.
    EXPECT_EQ(src.view_at(2).P.data(), src.view_at(5).P.data()) << c.name;
  }
}

}  // namespace
}  // namespace skp
