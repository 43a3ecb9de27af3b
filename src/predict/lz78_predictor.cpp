#include "predict/lz78_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

Lz78Predictor::Lz78Predictor(std::size_t n) : n_(n) {
  SKP_REQUIRE(n > 0, "Lz78Predictor over empty catalog");
  nodes_.emplace_back();  // root
  marginal_.assign(n, 0.0);
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
  const auto sym = static_cast<std::size_t>(item);
  if (root_child_.empty()) {  // first observe: the root's dense index
    root_count_.assign(n_, 0.0);
    root_child_.assign(n_, kNull);
  }
  ++nodes_[current_].total;
  marginal_[sym] += 1.0;
  ++total_;

  std::uint32_t* root_child = nullptr;
  if (current_ == 0) {
    root_child = &root_child_[sym];
    if (*root_child != kNull) {
      root_count_[sym] += 1.0;
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
    root_count_[sym] = 1.0;
  } else {
    parent.head = edges_.alloc(Edge{item, id, 1, parent.head});
  }
  ++parent.deg;
  current_ = 0;
  depth_ = 0;
  ++phrases_;
}

void Lz78Predictor::blend_into(std::span<double> p) const {
  const Node& node = nodes_[current_];
  // PPM-C escape: distinct successors / (total + distinct).
  const double distinct = static_cast<double>(node.deg);
  const double total = static_cast<double>(node.total);
  const double esc = distinct / (total + distinct);
  const double denom =
      static_cast<double>(total_) + static_cast<double>(n_);
  // A successor's entry is share + esc * base, in the reference's
  // operation order (addition commutes bit for bit). At the root a
  // symbol without a child has count 0, whose share is +0.0.
  if (current_ == 0) {
    for (std::size_t i = 0; i < n_; ++i) {
      p[i] = (1.0 - esc) * root_count_[i] / total +
             esc * ((marginal_[i] + 1.0) / denom);
    }
    return;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    p[i] = esc * ((marginal_[i] + 1.0) / denom);
  }
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    p[static_cast<std::size_t>(edges_[e].sym)] +=
        (1.0 - esc) * static_cast<double>(edges_[e].count) / total;
  }
}

void Lz78Predictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  if (total_ == 0) {
    p.assign(n_, 1.0 / static_cast<double>(n_));
    return;
  }
  p.resize(n_);
  const Node& cur = nodes_[current_];
  if (cur.total == 0) {
    // Order-0 backstop only: the smoothed marginal.
    const double denom =
        static_cast<double>(total_) + static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) p[i] = (marginal_[i] + 1.0) / denom;
    return;
  }
  blend_into(p);
  // Normalize away fp residue.
  double sum = 0.0;
  for (const double x : p) sum += x;
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
    for (std::size_t i = 0; i < n_; ++i) {
      const double x = marginal_[i] + 1.0;
      if (x < screen) continue;
      const double p = min_prob_filtered(x / denom, min_prob);
      if (p == 0.0) continue;
      P[i] = p;
      support.push_back(static_cast<ItemId>(i));
    }
    return;
  }
  // P is the only row: the reference row goes into it element-wise, then
  // one index-order pass sums it, keeps the candidates and re-zeroes it
  // for finish_normalized_row.
  blend_into(P);
  const double floor = candidate_floor(min_prob);
  candidates_.clear();
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double x = P[i];
    P[i] = 0.0;
    sum += x;
    if (x >= floor) candidates_.push_back({static_cast<ItemId>(i), x});
  }
  if (!finish_normalized_row(min_prob, sum, candidates_, P, support)) {
    Predictor::predict_filtered_into(min_prob, P, support);
  }
}

void Lz78Predictor::reset() {
  nodes_.clear();
  nodes_.emplace_back();
  edges_.clear();
  std::fill(root_count_.begin(), root_count_.end(), 0.0);
  std::fill(root_child_.begin(), root_child_.end(), kNull);
  current_ = 0;
  depth_ = 0;
  phrases_ = 0;
  std::fill(marginal_.begin(), marginal_.end(), 0.0);
  total_ = 0;
}

}  // namespace skp
