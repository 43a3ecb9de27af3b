// LZ78 parse-tree predictor (Vitter & Krishnan, FOCS 1991).
//
// The paper's related work [16] proves that predictors built on the LZ78
// incremental parse are asymptotically optimal for Markov sources. The
// tree starts as a single root; each observed symbol descends into the
// matching child, creating it (and restarting the phrase at the root) when
// absent — exactly the LZ78 phrase rule. Prediction blends the current
// node's child counts with the root's (order-0) distribution using a
// PPM-C style escape, so novel contexts degrade gracefully instead of
// predicting uniformly.
//
// Storage is arena-backed (util/arena.hpp): a node is 16 bytes plus one
// pooled 24-byte edge per distinct successor, replacing the two
// unordered_maps per node of the original implementation. A node's edge
// list is kept in insertion order and every edge is visited exactly once
// per predict (each symbol's probability is assigned, not accumulated,
// before the order-independent escape blend), so predictions are
// bit-identical to the map-based predecessor.
#pragma once

#include <cstdint>
#include <vector>

#include "predict/predictor.hpp"
#include "util/arena.hpp"

namespace skp {

class Lz78Predictor final : public Predictor {
 public:
  explicit Lz78Predictor(std::size_t n);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  // One fused O(n) pass builds the pre-normalization row and its
  // index-order sum (the rounding the reference divides by); only the
  // entries that can clear `min_prob` are then divided.
  void predict_filtered_into(double min_prob, std::vector<double>& P,
                             std::vector<ItemId>& support) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  // Diagnostics.
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t phrase_count() const noexcept { return phrases_; }
  std::size_t current_depth() const noexcept { return depth_; }
  // Heap bytes behind the trie (capacity bench).
  std::size_t footprint_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Node) + edges_.footprint_bytes() +
           marginal_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint32_t kNull = PoolArena<int>::kNull;
  struct Edge {
    ItemId sym;             // observed successor symbol
    std::uint32_t child;    // node reached by this edge
    std::uint64_t count;    // traversals into the child
    std::uint32_t next;     // next edge of the same node (insertion order)
  };
  struct Node {
    std::uint32_t head = kNull;  // first edge (insertion order)
    std::uint32_t deg = 0;       // distinct successors
    std::uint64_t total = 0;
  };

  // The node's edge for `sym`, or nullptr. Out-degrees are small (the
  // paper's sources have 10-20 successors per state), so a linear scan
  // beats any hash here.
  Edge* find_edge(Node& node, ItemId sym);
  const Edge* find_edge(const Node& node, ItemId sym) const;
  // The blend both predicts share: the node's escape weight, and each
  // successor's (1 - esc) * count / total written into `p`.
  static double escape_weight(const Node& node);
  void assign_successor_shares(const Node& node, double esc,
                               std::vector<double>& p) const;

  std::size_t n_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  PoolArena<Edge> edges_;
  std::uint32_t current_ = 0;
  std::size_t depth_ = 0;
  std::size_t phrases_ = 0;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
  // Order-0 backstop distribution, reused so predict_into never allocates.
  mutable std::vector<double> base_;
  // predict_filtered_into's survivor candidates, reused likewise.
  mutable std::vector<FilterCandidate> candidates_;
};

}  // namespace skp
