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

const Lz78Predictor::Edge* Lz78Predictor::find_edge(const Node& node,
                                                    ItemId sym) const {
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    if (edges_[e].sym == sym) return &edges_[e];
  }
  return nullptr;
}

void Lz78Predictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  Node& cur = nodes_[current_];
  ++cur.total;
  ++marginal_[static_cast<std::size_t>(item)];
  ++total_;

  if (Edge* edge = find_edge(cur, item)) {
    ++edge->count;
    current_ = edge->child;
    ++depth_;
    return;
  }
  // New phrase: grow the tree by one node and one edge, restart at the
  // root (LZ78). The edge is appended at the list head; since each
  // symbol is created exactly once per node, traversal still visits
  // every distinct successor exactly once.
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node& reloaded = nodes_[current_];  // emplace may have reallocated
  const std::uint32_t e =
      edges_.alloc(Edge{item, id, 1, reloaded.head});
  reloaded.head = e;
  ++reloaded.deg;
  current_ = 0;
  depth_ = 0;
  ++phrases_;
}

void Lz78Predictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.assign(n_, 0.0);
  if (total_ == 0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
    return;
  }
  // Order-0 backstop: smoothed marginal.
  std::vector<double>& base = base_;
  base.resize(n_);
  const double denom =
      static_cast<double>(total_) + static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    base[i] = (static_cast<double>(marginal_[i]) + 1.0) / denom;
  }

  const Node& cur = nodes_[current_];
  if (cur.total == 0) {
    p.assign(base.begin(), base.end());
    return;
  }

  const double esc = escape_weight(cur);
  assign_successor_shares(cur, esc, p);
  for (std::size_t i = 0; i < n_; ++i) {
    p[i] += esc * base[i];
  }
  // Normalize away fp residue.
  double sum = 0.0;
  for (const double x : p) sum += x;
  for (double& x : p) x /= sum;
}

double Lz78Predictor::escape_weight(const Node& node) {
  // PPM-C escape: distinct successors / (total + distinct).
  const double distinct = static_cast<double>(node.deg);
  return distinct / (static_cast<double>(node.total) + distinct);
}

void Lz78Predictor::assign_successor_shares(const Node& node, double esc,
                                            std::vector<double>& p) const {
  // Each symbol appears on exactly one edge, so the per-symbol
  // assignment is iteration-order independent.
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    p[static_cast<std::size_t>(edges_[e].sym)] =
        (1.0 - esc) * static_cast<double>(edges_[e].count) /
        static_cast<double>(node.total);
  }
}

void Lz78Predictor::predict_filtered_into(
    double min_prob, std::vector<double>& P,
    std::vector<ItemId>& support) const {
  if (total_ == 0 || !screenable(min_prob)) {
    Predictor::predict_filtered_into(min_prob, P, support);
    return;
  }
  clear_filtered_row(P, support);
  const double denom =
      static_cast<double>(total_) + static_cast<double>(n_);
  const Node& cur = nodes_[current_];
  if (cur.total == 0) {
    // The backstop row is returned unnormalized: filter it directly.
    for (std::size_t i = 0; i < n_; ++i) {
      const double p = min_prob_filtered(
          (static_cast<double>(marginal_[i]) + 1.0) / denom, min_prob);
      if (p == 0.0) continue;
      P[i] = p;
      support.push_back(static_cast<ItemId>(i));
    }
    return;
  }
  // The reference row, fused: P holds each edge's share (0 elsewhere)
  // while one index-order pass adds the escape-weighted backstop, sums,
  // keeps the candidates and clears the shares again (a sequential
  // store is cheaper than walking a root's ~n edges a second time).
  const double esc = escape_weight(cur);
  assign_successor_shares(cur, esc, P);
  const double floor = candidate_floor(min_prob);
  candidates_.clear();
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double x =
        P[i] + esc * ((static_cast<double>(marginal_[i]) + 1.0) / denom);
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
  current_ = 0;
  depth_ = 0;
  phrases_ = 0;
  std::fill(marginal_.begin(), marginal_.end(), 0);
  total_ = 0;
}

}  // namespace skp
