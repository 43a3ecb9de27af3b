#include "predict/lz78_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

Lz78Predictor::Lz78Predictor(std::size_t n) : n_(n) {
  SKP_REQUIRE(n > 0, "Lz78Predictor over empty catalog");
  nodes_.emplace_back();  // root
  marginal_.assign(n, 0);
}

Lz78Predictor::Edge* Lz78Predictor::find_edge(Node& node, ItemId sym) {
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    if (edges_[e].sym == sym) return &edges_[e];
  }
  return nullptr;
}

void Lz78Predictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  SKP_REQUIRE(total_ < kMaxObservations,
              "Lz78Predictor holds at most " << kMaxObservations
                                             << " observations");
  const auto sym = static_cast<std::size_t>(item);
  if (root_child_.empty()) {  // first observe: the root's dense index
    root_count_.assign(n_, 0);
    root_child_.assign(n_, kNull);
  }
  ++nodes_[current_].total;
  max_marginal_ = std::max(max_marginal_, ++marginal_[sym]);
  ++total_;

  std::uint32_t* root_child = nullptr;
  if (current_ == 0) {
    root_child = &root_child_[sym];
    if (*root_child != kNull) {
      max_root_count_ = std::max(max_root_count_, ++root_count_[sym]);
      current_ = *root_child;
      ++depth_;
      return;
    }
  } else if (Edge* edge = find_edge(nodes_[current_], item)) {
    ++edge->count;
    current_ = edge->child;
    ++depth_;
    return;
  }
  // New phrase: grow the tree by one node and one edge, restart at the
  // root (LZ78). A non-root edge is appended at its list head; since each
  // symbol is created exactly once per node, traversal still visits
  // every distinct successor exactly once.
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node& parent = nodes_[current_];  // emplace may have reallocated
  if (root_child != nullptr) {
    *root_child = id;
    root_count_[sym] = 1;
    max_root_count_ = std::max<Count>(max_root_count_, 1);
  } else {
    parent.head = edges_.alloc(Edge{item, id, 1, parent.head});
  }
  ++parent.deg;
  current_ = 0;
  depth_ = 0;
  ++phrases_;
}

Lz78Predictor::Blend Lz78Predictor::blend() const {
  const Node& node = nodes_[current_];
  // PPM-C escape: distinct successors / (total + distinct).
  const double distinct = static_cast<double>(node.deg);
  const double total = static_cast<double>(node.total);
  return {distinct / (total + distinct), total,
          static_cast<double>(total_) + static_cast<double>(n_)};
}

template <typename Visit>
double Lz78Predictor::blend_pass(Blend b, std::span<double> p,
                                 Visit visit) const {
  const CountTable backstop(backstop_table_, max_marginal_, n_,
                            [b](double m) { return b.backstop(m); });
  double sum = 0.0;
  if (current_ == 0) {
    // A symbol without a child has count 0, whose share is +0.0.
    const CountTable share(share_table_, max_root_count_, n_,
                           [b](double c) { return b.share(c); });
    for (std::size_t i = 0; i < n_; ++i) {
      const double x = share(root_count_[i]) + backstop(marginal_[i]);
      sum += x;
      visit(i, x);
    }
    return sum;
  }
  // The reference adds a successor's share onto its backstop; addition
  // commutes bit for bit, and +0.0 + backstop is the backstop.
  const Node& node = nodes_[current_];
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    p[static_cast<std::size_t>(edges_[e].sym)] =
        b.share(static_cast<double>(edges_[e].count));
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const double x = p[i] + backstop(marginal_[i]);
    p[i] = 0.0;
    sum += x;
    visit(i, x);
  }
  return sum;
}

void Lz78Predictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  if (total_ == 0) {
    p.assign(n_, 1.0 / static_cast<double>(n_));
    return;
  }
  const Node& cur = nodes_[current_];
  if (cur.total == 0) {
    // Order-0 backstop only: the smoothed marginal.
    const double denom =
        static_cast<double>(total_) + static_cast<double>(n_);
    const CountTable smoothed(backstop_table_, max_marginal_, n_,
                              [denom](double m) { return (m + 1.0) / denom; });
    p.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) p[i] = smoothed(marginal_[i]);
    return;
  }
  p.assign(n_, 0.0);
  const double sum =
      blend_pass(blend(), p, [&p](std::size_t i, double x) { p[i] = x; });
  // Normalize away fp residue.
  for (double& x : p) x /= sum;
}

void Lz78Predictor::predict_filtered_into(
    double min_prob, std::vector<double>& P,
    std::vector<ItemId>& support) const {
  if (total_ == 0 || !screenable(min_prob)) {
    Predictor::predict_filtered_into(min_prob, P, support);
    return;
  }
  clear_filtered_row(P, support);
  const Node& cur = nodes_[current_];
  if (cur.total == 0) {
    // The backstop row is returned unnormalized, so it needs no sum:
    // only the counts that pass the screen are divided and filtered.
    const double denom =
        static_cast<double>(total_) + static_cast<double>(n_);
    const double screen = screen_below(min_prob, denom);
    if (static_cast<double>(max_marginal_) + 1.0 < screen) {
      SKP_ASSERT(filters_to_empty(min_prob));  // no count passes
      return;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const double x = static_cast<double>(marginal_[i]) + 1.0;
      if (x < screen) continue;
      const double p = min_prob_filtered(x / denom, min_prob);
      if (p == 0.0) continue;
      P[i] = p;
      support.push_back(static_cast<ItemId>(i));
    }
    return;
  }
  // A row whose largest entry cannot reach the candidate floor filters
  // to nothing: its exact sum is 1, so the reference divides by a sum
  // inside finish_normalized_row's window. At the root, blend_pass's
  // expression evaluated on the two running maxima is at least every
  // entry it forms, since rounding is monotone in every operand. Rows
  // below the root go straight to the pass.
  const Blend b = blend();
  const double floor = candidate_floor(min_prob);
  if (current_ == 0 &&
      b.share(static_cast<double>(max_root_count_)) +
              b.backstop(static_cast<double>(max_marginal_)) <
          floor) {
    SKP_ASSERT(filters_to_empty(min_prob));
    return;
  }
  candidates_.clear();
  const double sum = blend_pass(b, P, [this, floor](std::size_t i, double x) {
    if (x >= floor) candidates_.push_back({static_cast<ItemId>(i), x});
  });
  if (!finish_normalized_row(min_prob, sum, candidates_, P, support)) {
    Predictor::predict_filtered_into(min_prob, P, support);
  }
}

void Lz78Predictor::reset() {
  nodes_.clear();
  nodes_.emplace_back();
  edges_.clear();
  std::fill(root_count_.begin(), root_count_.end(), 0);
  std::fill(root_child_.begin(), root_child_.end(), kNull);
  current_ = 0;
  depth_ = 0;
  phrases_ = 0;
  std::fill(marginal_.begin(), marginal_.end(), 0);
  max_marginal_ = 0;
  max_root_count_ = 0;
  total_ = 0;
}

}  // namespace skp
