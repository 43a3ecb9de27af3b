#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

double sum(const std::vector<double>& p) {
  double s = 0;
  for (double x : p) s += x;
  return s;
}

// All predictors must emit proper distributions at every point of a random
// observation stream.
template <typename P>
void check_distribution_invariant(P& pred, std::size_t n) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const auto p = pred.predict();
    EXPECT_EQ(p.size(), n);
    EXPECT_NEAR(sum(p), 1.0, 1e-9);
    for (double x : p) EXPECT_GE(x, 0.0);
    pred.observe(static_cast<ItemId>(rng.next_below(n)));
  }
}

TEST(MarkovPredictor, DistributionInvariant) {
  MarkovPredictor pred(8);
  check_distribution_invariant(pred, 8);
}

TEST(PpmPredictor, DistributionInvariant) {
  PpmPredictor pred(8, 3);
  check_distribution_invariant(pred, 8);
}

TEST(DependencyGraph, DistributionInvariant) {
  DependencyGraph pred(8, 3);
  check_distribution_invariant(pred, 8);
}

TEST(MarkovPredictor, ConstructionValidation) {
  EXPECT_THROW(MarkovPredictor(0), std::invalid_argument);
  EXPECT_THROW(MarkovPredictor(4, 0.0), std::invalid_argument);
}

TEST(MarkovPredictor, LearnsDeterministicChain) {
  // 0 -> 1 -> 2 -> 0 -> ...: after training, P(next | last) concentrates.
  MarkovPredictor pred(3, 0.01);
  for (int rep = 0; rep < 100; ++rep) {
    pred.observe(0);
    pred.observe(1);
    pred.observe(2);
  }
  pred.observe(0);
  const auto p = pred.predict();
  EXPECT_GT(p[1], 0.9);
}

TEST(MarkovPredictor, CountsExposed) {
  MarkovPredictor pred(3);
  pred.observe(0);
  pred.observe(1);
  pred.observe(0);
  EXPECT_EQ(pred.count(0, 1), 1u);
  EXPECT_EQ(pred.count(1, 0), 1u);
  EXPECT_EQ(pred.count(2, 0), 0u);
  EXPECT_EQ(pred.last_item(), 0);
}

TEST(MarkovPredictor, NoContextFallsBackToMarginal) {
  MarkovPredictor pred(4);
  const auto p = pred.predict();  // nothing observed: uniform smoothing
  for (double x : p) EXPECT_NEAR(x, 0.25, 1e-9);
}

TEST(MarkovPredictor, ResetForgets) {
  MarkovPredictor pred(3);
  pred.observe(0);
  pred.observe(1);
  pred.reset();
  EXPECT_EQ(pred.count(0, 1), 0u);
  EXPECT_EQ(pred.last_item(), kNoItem);
}

TEST(MarkovPredictor, OutOfRangeObservationThrows) {
  MarkovPredictor pred(3);
  EXPECT_THROW(pred.observe(3), std::invalid_argument);
  EXPECT_THROW(pred.observe(-1), std::invalid_argument);
}

TEST(PpmPredictor, ConstructionValidation) {
  EXPECT_THROW(PpmPredictor(0), std::invalid_argument);
  EXPECT_THROW(PpmPredictor(4, 0), std::invalid_argument);
  EXPECT_THROW(PpmPredictor(4, 9), std::invalid_argument);
}

TEST(PpmPredictor, LearnsOrder2Pattern) {
  // Sequence alternates blocks: after (0,1) comes 2; after (2,1) comes 0.
  // An order-2 model separates them; order-1 cannot.
  PpmPredictor pred(3, 2);
  for (int rep = 0; rep < 200; ++rep) {
    pred.observe(0);
    pred.observe(1);
    pred.observe(2);
    pred.observe(1);
  }
  // History now ends ...2, 1 -> expect 0 next (cycle restarts).
  const auto p = pred.predict();
  EXPECT_GT(p[0], 0.6);
}

TEST(PpmPredictor, EscapesToLowerOrderOnNovelContext) {
  PpmPredictor pred(4, 2);
  for (int rep = 0; rep < 50; ++rep) {
    pred.observe(0);
    pred.observe(1);
  }
  pred.observe(3);  // novel context (1, 3): order-2 unseen
  const auto p = pred.predict();
  EXPECT_NEAR(sum(p), 1.0, 1e-9);  // still a proper distribution
}

TEST(PpmPredictor, ResetForgets) {
  PpmPredictor pred(3, 2);
  for (int i = 0; i < 30; ++i) pred.observe(i % 3);
  pred.reset();
  const auto p = pred.predict();
  for (double x : p) EXPECT_NEAR(x, 1.0 / 3.0, 1e-9);
}

TEST(DependencyGraph, ConstructionValidation) {
  EXPECT_THROW(DependencyGraph(0), std::invalid_argument);
  EXPECT_THROW(DependencyGraph(4, 0), std::invalid_argument);
}

TEST(DependencyGraph, ArcsCountWindowCooccurrence) {
  DependencyGraph dg(4, 2);
  dg.observe(0);
  dg.observe(1);  // window {0}: arc 0->1
  dg.observe(2);  // window {0,1}: arcs 0->2, 1->2
  EXPECT_EQ(dg.arc(0, 1), 1u);
  EXPECT_EQ(dg.arc(0, 2), 1u);
  EXPECT_EQ(dg.arc(1, 2), 1u);
  EXPECT_EQ(dg.arc(2, 0), 0u);
}

TEST(DependencyGraph, Window1IsFirstOrderMarkov) {
  DependencyGraph dg(3, 1);
  dg.observe(0);
  dg.observe(1);
  dg.observe(0);
  dg.observe(1);
  EXPECT_EQ(dg.arc(0, 1), 2u);
  EXPECT_EQ(dg.arc(1, 0), 1u);
}

TEST(DependencyGraph, PredictNormalizesOutArcs) {
  DependencyGraph dg(3, 1);
  for (int i = 0; i < 3; ++i) {
    dg.observe(0);
    dg.observe(1);
    dg.observe(0);
    dg.observe(2);
  }
  dg.observe(0);
  const auto p = dg.predict();
  EXPECT_NEAR(sum(p), 1.0, 1e-9);
  EXPECT_GT(p[1], 0.0);
  EXPECT_GT(p[2], 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);  // no self arcs observed
}

TEST(DependencyGraph, ColdStartIsUniform) {
  DependencyGraph dg(5, 2);
  const auto p = dg.predict();
  for (double x : p) EXPECT_NEAR(x, 0.2, 1e-9);
}

TEST(DependencyGraph, ArcProbabilityNormalizedByAccesses) {
  DependencyGraph dg(3, 1);
  dg.observe(0);
  dg.observe(1);
  dg.observe(0);
  dg.observe(2);
  // Item 0 accessed twice; arc 0->1 observed once.
  EXPECT_DOUBLE_EQ(dg.arc_probability(0, 1), 0.5);
}

TEST(Predictors, MarkovBeatsUniformOnMarkovSource) {
  // On the Fig. 7 workload, a learned first-order model should assign the
  // realized next item more mass than the uniform baseline on average.
  Rng build(5);
  MarkovSourceConfig cfg;
  cfg.n_states = 20;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 5;
  MarkovSource src(cfg, build);
  MarkovPredictor pred(cfg.n_states, 0.01);
  Rng walk(6);
  src.teleport(0);
  pred.observe(0);
  double mass_on_realized = 0;
  const int steps = 5000;
  // Warm up the predictor on the first half.
  for (int i = 0; i < steps; ++i) {
    const auto next = static_cast<ItemId>(src.step(walk));
    if (i > steps / 2) {
      mass_on_realized += pred.predict()[static_cast<std::size_t>(next)];
    }
    pred.observe(next);
  }
  const double avg = mass_on_realized / (steps / 2.0 - 1);
  EXPECT_GT(avg, 2.0 / cfg.n_states);  // at least 2x uniform
}

// ---- predict_filtered_into against predict_into + filter -------------

// A request stream with Markov structure plus noise: every item has a
// few preferred successors and one step in eight jumps anywhere, so rows
// mix concentrated mass with long tails.
std::vector<ItemId> structured_stream(std::size_t n, std::size_t steps,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t k = std::min<std::size_t>(n, 4);
  std::vector<std::vector<ItemId>> succ(n);
  for (auto& s : succ) {
    for (std::size_t j = 0; j < k; ++j) {
      s.push_back(static_cast<ItemId>(rng.next_below(n)));
    }
  }
  std::vector<ItemId> out;
  std::size_t cur = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    cur = rng.next_below(8) == 0
              ? static_cast<std::size_t>(rng.next_below(n))
              : static_cast<std::size_t>(succ[cur][rng.next_below(k)]);
    out.push_back(static_cast<ItemId>(cur));
  }
  return out;
}

// The definition predict_filtered_into must reproduce, written out
// independently of the library's filter helpers.
void reference_filtered(const Predictor& pred, double min_prob,
                        std::vector<double>& P,
                        std::vector<ItemId>& support) {
  pred.predict_into(P);
  support.clear();
  for (std::size_t i = 0; i < P.size(); ++i) {
    if (P[i] < min_prob) P[i] = 0.0;
    if (P[i] != 0.0) support.push_back(static_cast<ItemId>(i));
  }
}

// Drives `pred` through `stream`, comparing the filtered row with the
// reference bit for bit at every step. Between steps the caller-side
// contract is exercised: entries of P are zeroed at random (overload
// degradation does this), predict_into runs on the same instance, and
// the predictor is reset halfway.
void expect_lockstep(Predictor& pred, const std::vector<ItemId>& stream,
                     double min_prob) {
  std::vector<double> P, ref, dense;
  std::vector<ItemId> support, ref_support;
  Rng poke(3);
  for (std::size_t t = 0; t < stream.size(); ++t) {
    if (t == stream.size() / 2) pred.reset();
    pred.predict_filtered_into(min_prob, P, support);
    reference_filtered(pred, min_prob, ref, ref_support);
    ASSERT_EQ(P.size(), ref.size()) << "step " << t;
    ASSERT_EQ(std::memcmp(P.data(), ref.data(), P.size() * sizeof(double)),
              0)
        << "step " << t;
    ASSERT_EQ(support, ref_support) << "step " << t;
    if (!support.empty() && poke.next_below(4) == 0) {
      P[static_cast<std::size_t>(
          support[poke.next_below(support.size())])] = 0.0;
    }
    if (t % 3 == 0) pred.predict_into(dense);
    pred.observe(stream[t]);
  }
}

TEST(PredictFiltered, MatchesDenseFilterInLockstep) {
  using Make = std::function<std::unique_ptr<Predictor>(std::size_t)>;
  const std::vector<std::pair<std::string, Make>> kinds = {
      {"markov1", [](std::size_t n) {
         return std::make_unique<MarkovPredictor>(n);
       }},
      {"markov1_trace", [](std::size_t n) {
         return std::make_unique<MarkovPredictor>(n, 0.05);
       }},
      {"lz78", [](std::size_t n) {
         return std::make_unique<Lz78Predictor>(n);
       }},
      {"ppm2", [](std::size_t n) {
         return std::make_unique<PpmPredictor>(n, 2);
       }},
      {"ppm3", [](std::size_t n) {
         return std::make_unique<PpmPredictor>(n, 3);
       }},
      {"depgraph", [](std::size_t n) {
         return std::make_unique<DependencyGraph>(n, 2);
       }},
  };
  for (const std::size_t n : {2u, 7u, 100u, 1000u}) {
    const std::vector<ItemId> stream = structured_stream(n, 4096, 11 + n);
    for (const double min_prob : {0.0, 1e-4, 0.01, 0.3}) {
      for (const auto& [name, make] : kinds) {
        SCOPED_TRACE(name + " n=" + std::to_string(n) +
                     " min_prob=" + std::to_string(min_prob));
        const std::unique_ptr<Predictor> pred = make(n);
        expect_lockstep(*pred, stream, min_prob);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(PredictFiltered, WrongSizedBufferIsReset) {
  MarkovPredictor pred(50);
  for (const ItemId item : structured_stream(50, 500, 5)) pred.observe(item);
  std::vector<double> P(7, 0.5);  // stale junk of another catalog
  std::vector<ItemId> support{1, 3, 6};
  pred.predict_filtered_into(0.01, P, support);
  std::vector<double> ref;
  std::vector<ItemId> ref_support;
  reference_filtered(pred, 0.01, ref, ref_support);
  EXPECT_EQ(P, ref);
  EXPECT_EQ(support, ref_support);
}

// A predictor emitting a fixed row, to pin the default implementation.
class FixedRowPredictor final : public Predictor {
 public:
  explicit FixedRowPredictor(std::vector<double> row)
      : row_(std::move(row)) {}
  void observe(ItemId) override {}
  void predict_into(std::vector<double>& out) const override { out = row_; }
  std::size_t n_items() const override { return row_.size(); }
  void reset() override {}

 private:
  std::vector<double> row_;
};

TEST(PredictFiltered, NaNSurvivesTheFilter) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const FixedRowPredictor pred({0.5, 0.001, nan, 0.0, 0.2});
  std::vector<double> P;
  std::vector<ItemId> support;
  pred.predict_filtered_into(0.01, P, support);
  EXPECT_EQ(support, (std::vector<ItemId>{0, 2, 4}));
  EXPECT_EQ(P[1], 0.0);
  EXPECT_TRUE(std::isnan(P[2]));
  EXPECT_EQ(P[4], 0.2);
}

TEST(MarkovPredictor, SparseCountsMatchDenseTable) {
  const std::size_t n = 100;
  MarkovPredictor pred(n);
  std::vector<std::vector<std::uint64_t>> dense(
      n, std::vector<std::uint64_t>(n, 0));
  const std::vector<ItemId> stream = structured_stream(n, 6000, 17);
  ItemId last = kNoItem;
  for (std::size_t t = 0; t < stream.size(); ++t) {
    if (t == 4000) {
      pred.reset();
      for (auto& row : dense) std::fill(row.begin(), row.end(), 0);
      last = kNoItem;
    }
    if (last != kNoItem) {
      ++dense[static_cast<std::size_t>(last)]
             [static_cast<std::size_t>(stream[t])];
    }
    pred.observe(stream[t]);
    last = stream[t];
    if (t == 3999 || t + 1 == stream.size()) {
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
          ASSERT_EQ(pred.count(static_cast<ItemId>(a),
                               static_cast<ItemId>(b)),
                    dense[a][b])
              << a << " -> " << b << " at step " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace skp
