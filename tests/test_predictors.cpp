#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
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

// An i.i.d. uniform stream: every symbol starts LZ78 phrases, so the
// tree's root soon holds the whole catalog.
std::vector<ItemId> iid_stream(std::size_t n, std::size_t steps,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ItemId> out;
  for (std::size_t i = 0; i < steps; ++i) {
    out.push_back(static_cast<ItemId>(rng.next_below(n)));
  }
  return out;
}

// Segments (a_k, b, x_k) for k drawn uniformly from 0..5, with a_k =
// 200 + k, b = 700 and x_k one of 0, 1, 500, 501, 998 and 999 (for
// n = 1000). After b the PPM order-2 context (a_k, b) claims x_k and the
// order-1 context (b) the other x's; after x_k the contexts claim the
// adjacent a's. The claimed ids thus leave empty runs of open symbols
// at both ends of the row and between adjacent claims, and each reset
// leaves whole-row runs. In the rows after b, b is open and holds the
// largest count, so its entry is the row's largest open one, and it lies
// between 1e-4 and 0.01 in 717 of the 1,000 (seed 47): at min_prob 1e-4
// PPM visits the open entries, at 0.01 it only sums them.
std::vector<ItemId> run_boundary_stream(std::size_t segments,
                                        std::uint64_t seed) {
  constexpr ItemId kX[] = {0, 1, 500, 501, 998, 999};
  Rng rng(seed);
  std::vector<ItemId> out;
  for (std::size_t s = 0; s < segments; ++s) {
    const auto k = static_cast<ItemId>(rng.next_below(6));
    out.insert(out.end(), {200 + k, 700, kX[k]});
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

struct LockstepInput {
  std::string name;
  std::size_t n;
  std::vector<ItemId> stream;
};

// The n = 2 and n = 7 streams drive every count far past n, so the
// LZ78 and PPM rows run from count tables early and inline later.
std::vector<LockstepInput> lockstep_inputs() {
  std::vector<LockstepInput> inputs;
  for (const std::size_t n : {2u, 7u, 100u, 1000u}) {
    inputs.push_back({"structured", n, structured_stream(n, 4096, 11 + n)});
  }
  // LZ78's root holds every symbol, before and after the halfway reset.
  inputs.push_back({"iid", 100, iid_stream(100, 4096, 23)});
  // Catalogs the size of learned_des: most LZ78 rows sit at the root or
  // at a node with no observations, and the long stream grows the root's
  // largest counts well past the rest.
  inputs.push_back({"iid", 1000, iid_stream(1000, 4096, 29)});
  inputs.push_back(
      {"structured_long", 1000, structured_stream(1000, 20000, 31)});
  inputs.push_back({"run_boundaries", 1000, run_boundary_stream(1000, 47)});
  return inputs;
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
  for (const LockstepInput& in : lockstep_inputs()) {
    for (const double min_prob : {0.0, 1e-4, 0.01, 0.3}) {
      for (const auto& [name, make] : kinds) {
        SCOPED_TRACE(name + " " + in.name + " n=" + std::to_string(in.n) +
                     " min_prob=" + std::to_string(min_prob));
        const std::unique_ptr<Predictor> pred = make(in.n);
        expect_lockstep(*pred, in.stream, min_prob);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Exposes the library's filter screens, so a test can find the min_prob
// at which a screen meets a given entry. Never instantiated.
struct FilterScreens : Predictor {
  using Predictor::candidate_floor;
  using Predictor::screen_below;
};

// The smallest positive min_prob whose `screen` reaches `x` (0 < x <= 1),
// by bisection: positive doubles order like their bit patterns.
double screen_edge(double x, const std::function<double(double)>& screen) {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::bit_cast<std::uint64_t>(4.0);
  EXPECT_LT(screen(0.0), x);
  EXPECT_GE(screen(4.0), x);
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (screen(std::bit_cast<double>(mid)) >= x ? hi : lo) = mid;
  }
  return std::bit_cast<double>(hi);
}

// Checks predict_filtered_into against the reference at the 2 * width + 1
// nextafter neighbours of `edge`, into a fresh buffer and into one that
// holds the previous step's row.
void expect_matches_around(const Predictor& pred, double edge, int width) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_prob = edge;
  for (int k = 0; k < width; ++k) min_prob = std::nextafter(min_prob, 0.0);
  std::vector<double> P, reused, ref;
  std::vector<ItemId> support, reused_support, ref_support;
  for (int k = -width; k <= width; ++k) {
    SCOPED_TRACE("edge " + std::to_string(k) + " ulps away");
    P.clear();
    support.clear();
    pred.predict_filtered_into(min_prob, P, support);
    pred.predict_filtered_into(min_prob, reused, reused_support);
    reference_filtered(pred, min_prob, ref, ref_support);
    ASSERT_EQ(std::memcmp(P.data(), ref.data(), P.size() * sizeof(double)),
              0);
    ASSERT_EQ(std::memcmp(reused.data(), ref.data(),
                          reused.size() * sizeof(double)),
              0);
    ASSERT_EQ(support, ref_support);
    ASSERT_EQ(reused_support, ref_support);
    min_prob = std::nextafter(min_prob, kInf);
  }
}

// The LZ78 parse with map-based counts, written out independently of the
// library: the phrase rule, the kind of row the next prediction blends
// (so a test can tell the kinds apart from outside) and the row itself.
class Lz78Mirror {
 public:
  enum class Row { kRoot, kInner, kFresh };
  explicit Lz78Mirror(std::size_t n) : marginal_(n, 0) {}
  void observe(ItemId sym) {
    ++nodes_[cur_].total;
    ++marginal_[static_cast<std::size_t>(sym)];
    ++total_;
    const auto it = nodes_[cur_].child.find(sym);
    if (it != nodes_[cur_].child.end()) {
      ++it->second.count;
      cur_ = it->second.node;
      return;
    }
    nodes_[cur_].child[sym] = {nodes_.size(), 1};
    nodes_.emplace_back();
    cur_ = 0;
  }
  Row row() const {
    if (cur_ == 0) return Row::kRoot;
    return nodes_[cur_].total == 0 ? Row::kFresh : Row::kInner;
  }
  // The row predict_into must emit: the order-0 backstop (marginal + 1
  // over total + n) weighted by the PPM-C escape, plus each successor's
  // (1 - esc) * count / total, every entry divided by the index-order
  // sum. A node without observations returns the backstop unnormalized.
  // Returns that sum for the rows that take one (they sum to 1 in real
  // arithmetic), nullopt otherwise.
  std::optional<double> predict(std::vector<double>& p) const {
    const std::size_t n = marginal_.size();
    p.assign(n, 1.0 / static_cast<double>(n));
    if (total_ == 0) return std::nullopt;
    const double denom =
        static_cast<double>(total_) + static_cast<double>(n);
    const Node& node = nodes_[cur_];
    if (node.total == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = (static_cast<double>(marginal_[i]) + 1.0) / denom;
      }
      return std::nullopt;
    }
    const double distinct = static_cast<double>(node.child.size());
    const double total = static_cast<double>(node.total);
    const double esc = distinct / (total + distinct);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = esc * ((static_cast<double>(marginal_[i]) + 1.0) / denom);
    }
    for (const auto& [sym, edge] : node.child) {
      p[static_cast<std::size_t>(sym)] +=
          (1.0 - esc) * static_cast<double>(edge.count) / total;
    }
    double sum = 0.0;
    for (const double x : p) sum += x;
    for (double& x : p) x /= sum;
    return sum;
  }
  void reset() { *this = Lz78Mirror(marginal_.size()); }

 private:
  struct Edge {
    std::size_t node;
    std::uint64_t count;
  };
  struct Node {
    std::uint64_t total = 0;
    std::map<ItemId, Edge> child;
  };
  std::vector<Node> nodes_{1};
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
  std::size_t cur_ = 0;
};

// Order-k PPM with map-based contexts, written out independently of the
// library in its operation order: from the longest context down, each
// not-yet-excluded successor claims remaining * count / (total +
// distinct) of the open successors' counts, and the escape keeps
// distinct / (total + distinct); every open symbol then gains remaining
// times 0.9 of its marginal share among the open symbols plus 0.1 of
// the uniform one, and every entry is divided by the index-order sum.
class PpmReference {
 public:
  PpmReference(std::size_t n, std::size_t order)
      : order_(order), marginal_(n, 0) {}
  void observe(ItemId item) {
    for (std::size_t len = 1; len <= std::min(order_, history_.size());
         ++len) {
      ++contexts_[context(len)][item];
    }
    ++marginal_[static_cast<std::size_t>(item)];
    ++total_;
    history_.push_back(item);
    if (history_.size() > order_) history_.erase(history_.begin());
  }
  // Returns the pre-normalization sum for a row with an open symbol (it
  // sums to 1 in real arithmetic), nullopt when every symbol is claimed.
  std::optional<double> predict(std::vector<double>& p) const {
    const std::size_t n = marginal_.size();
    p.assign(n, 0.0);
    std::vector<bool> excluded(n, false);
    std::size_t claimed = 0;
    double remaining = 1.0;
    for (std::size_t len = std::min(order_, history_.size()); len >= 1;
         --len) {
      const auto it = contexts_.find(context(len));
      if (it == contexts_.end()) continue;
      std::uint64_t total = 0;
      std::uint64_t distinct = 0;
      for (const auto& [sym, count] : it->second) {
        if (excluded[static_cast<std::size_t>(sym)]) continue;
        total += count;
        ++distinct;
      }
      if (total == 0) continue;
      const double denom = static_cast<double>(total + distinct);
      for (const auto& [sym, count] : it->second) {
        const auto i = static_cast<std::size_t>(sym);
        if (excluded[i]) continue;
        p[i] += remaining * static_cast<double>(count) / denom;
        excluded[i] = true;
        ++claimed;
      }
      remaining *= static_cast<double>(distinct) / denom;
    }
    const std::size_t open = n - claimed;
    if (open > 0) {
      double marg_total = static_cast<double>(total_);
      for (std::size_t i = 0; i < n; ++i) {
        if (excluded[i]) marg_total -= static_cast<double>(marginal_[i]);
      }
      const double uniform = 1.0 / static_cast<double>(open);
      for (std::size_t i = 0; i < n; ++i) {
        if (excluded[i]) continue;
        p[i] += marg_total > 0.0
                    ? remaining * (0.9 * (static_cast<double>(marginal_[i]) /
                                          marg_total) +
                                   0.1 * uniform)
                    : remaining * (0.9 * uniform + 0.1 * uniform);
      }
    }
    double sum = 0.0;
    for (const double x : p) sum += x;
    if (sum <= 0.0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n));
      return std::nullopt;
    }
    for (double& x : p) x /= sum;
    if (open == 0) return std::nullopt;
    return sum;
  }
  void reset() { *this = PpmReference(marginal_.size(), order_); }

 private:
  std::vector<ItemId> context(std::size_t len) const {
    return {history_.end() - static_cast<std::ptrdiff_t>(len),
            history_.end()};
  }
  std::size_t order_;
  std::map<std::vector<ItemId>, std::map<ItemId, std::uint64_t>> contexts_;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
  std::vector<ItemId> history_;
};

// Drives `pred` and its written-out `ref` through `stream` (reset
// halfway, like expect_lockstep), comparing predict_into with the
// reference bit for bit at every step. A row that sums to 1 in real
// arithmetic must also have a computed sum within (n + 32) * 2^-53 of 1,
// the bound the library's candidate floor rests on.
template <typename Reference>
void expect_reference_lockstep(Predictor& pred, Reference& ref,
                               const std::vector<ItemId>& stream) {
  const std::size_t n = pred.n_items();
  const double bound =
      (static_cast<double>(n) + 32.0) * std::ldexp(1.0, -53);
  std::vector<double> row, ref_row;
  for (std::size_t t = 0; t < stream.size(); ++t) {
    if (t == stream.size() / 2) {
      pred.reset();
      ref.reset();
    }
    pred.predict_into(row);
    const std::optional<double> sum = ref.predict(ref_row);
    ASSERT_EQ(row.size(), ref_row.size()) << "step " << t;
    ASSERT_EQ(
        std::memcmp(row.data(), ref_row.data(), row.size() * sizeof(double)),
        0)
        << "step " << t;
    if (sum) {
      ASSERT_LE(std::abs(*sum - 1.0), bound) << "step " << t;
    }
    pred.observe(stream[t]);
    ref.observe(stream[t]);
  }
}

TEST(PredictInto, MatchesWrittenOutReferencesInLockstep) {
  for (const LockstepInput& in : lockstep_inputs()) {
    const std::string where = in.name + " n=" + std::to_string(in.n);
    {
      SCOPED_TRACE("lz78 " + where);
      Lz78Predictor pred(in.n);
      Lz78Mirror ref(in.n);
      expect_reference_lockstep(pred, ref, in.stream);
    }
    for (const std::size_t order : {2u, 3u}) {
      SCOPED_TRACE("ppm" + std::to_string(order) + " " + where);
      PpmPredictor pred(in.n, order);
      PpmReference ref(in.n, order);
      expect_reference_lockstep(pred, ref, in.stream);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A stream whose symbol 0 is half of all requests, so it usually holds
// the largest marginal, root and successor counts at once and the
// predictors' bounds on a row's largest entry are tight.
std::vector<ItemId> skewed_stream(std::size_t n, std::size_t steps,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ItemId> out;
  for (std::size_t i = 0; i < steps; ++i) {
    out.push_back(rng.next_below(2) == 0
                      ? 0
                      : static_cast<ItemId>(1 + rng.next_below(n - 1)));
  }
  return out;
}

// Sweeps min_prob across the knife edges of six row kinds: where
// candidate_floor (LZ78's root and inner rows, PPM rows with an open
// symbol or with every symbol claimed), the fresh-node screen or the
// Markov1 no-context row's own entries meet the row's largest entry, and
// where the reference filter itself starts to drop that entry. The floor
// sits within 2^-20 of min_prob, so the two edges are close but apart.
TEST(PredictFiltered, KnifeEdgesMatchTheDenseFilter) {
  constexpr std::size_t n = 6;
  constexpr int kWidth = 48;
  const auto floor = [](double m) {
    return FilterScreens::candidate_floor(m);
  };
  const std::vector<ItemId> stream = skewed_stream(n, 400, 41);

  Lz78Predictor lz78(n);
  Lz78Mirror mirror(n);
  std::vector<double> marginal(n, 0.0);
  std::vector<double> dense;
  int seen[3] = {0, 0, 0};
  for (std::size_t t = 0; t < stream.size(); ++t) {
    const Lz78Mirror::Row row = mirror.row();
    int& count = seen[static_cast<int>(row)];
    if (t >= 40 && count < 4) {
      ++count;
      SCOPED_TRACE("lz78 row kind " + std::to_string(static_cast<int>(row)) +
                   " at step " + std::to_string(t));
      lz78.predict_into(dense);
      const double p_max = *std::max_element(dense.begin(), dense.end());
      if (row == Lz78Mirror::Row::kFresh) {
        // The unnormalized backstop: x = marginal + 1 over total + n.
        const double denom = static_cast<double>(t) + static_cast<double>(n);
        const double x_max =
            *std::max_element(marginal.begin(), marginal.end()) + 1.0;
        expect_matches_around(lz78,
                              screen_edge(x_max,
                                          [denom](double m) {
                                            return FilterScreens::screen_below(
                                                m, denom);
                                          }),
                              kWidth);
      } else {
        // The row sum is 1 within a few ulps, so the pre-normalization
        // maximum is within a few ulps of p_max.
        expect_matches_around(lz78, screen_edge(p_max, floor), kWidth);
      }
      expect_matches_around(lz78, p_max, kWidth);
      if (::testing::Test::HasFatalFailure()) return;
    }
    lz78.observe(stream[t]);
    mirror.observe(stream[t]);
    marginal[static_cast<std::size_t>(stream[t])] += 1.0;
  }
  for (const int count : seen) EXPECT_EQ(count, 4);

  // PPM screens every entry of its pass against the same floor. A row
  // whose symbols are all claimed sums to less than 1 and is screened
  // only when its computed sum lands in the window.
  PpmPredictor ppm(n, 2);
  PpmReference ppm_ref(n, 2);
  int ppm_seen[2] = {0, 0};  // [every symbol claimed]
  for (std::size_t t = 0; t < stream.size(); ++t) {
    const bool open = ppm_ref.predict(dense).has_value();
    int& count = ppm_seen[open ? 0 : 1];
    if (t >= 40 && count < 4) {
      ++count;
      SCOPED_TRACE("ppm row with " + std::string(open ? "an open" : "no") +
                   " symbol at step " + std::to_string(t));
      const double p_max = *std::max_element(dense.begin(), dense.end());
      if (open) expect_matches_around(ppm, screen_edge(p_max, floor), kWidth);
      expect_matches_around(ppm, p_max, kWidth);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ppm.observe(stream[t]);
    ppm_ref.observe(stream[t]);
  }
  for (const int count : ppm_seen) EXPECT_EQ(count, 4);

  // Markov1 without context: the last item has never been followed, so
  // the row is the smoothed marginal and p < min_prob is the only screen.
  MarkovPredictor markov(n);
  for (const ItemId item : skewed_stream(n - 1, 60, 43)) markov.observe(item);
  markov.observe(static_cast<ItemId>(n - 1));  // a symbol never followed
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_EQ(markov.count(static_cast<ItemId>(n - 1),
                           static_cast<ItemId>(t)),
              0u);
  }
  markov.predict_into(dense);
  expect_matches_around(
      markov, *std::max_element(dense.begin(), dense.end()), kWidth);
  // The empty predictor's uniform row, before any observation.
  MarkovPredictor fresh(n);
  fresh.predict_into(dense);
  expect_matches_around(fresh, dense[0], kWidth);
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
