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
// unordered_maps per node of the original implementation. The root is
// the exception: every phrase restarts there, so it gains up to n
// children and is the current node on a large share of predictions. Its
// successors live in two dense per-symbol arrays instead (count and
// child, 12 bytes per catalog item, allocated on the first observe), so
// observe there is O(1) and predict reads them in index order. Each
// symbol's share is added exactly once onto its escape-weighted
// backstop, so predictions are bit-identical to the map-based
// predecessor.
//
// Marginal and root counts are held as doubles, exact below 2^53
// observations, so the per-entry backstop divisions vectorize.
//
// A filtered row at the root or at a node with no observations that
// cannot clear min_prob skips the O(n) pass. Running maxima of the
// marginal and root counts feed the row's own floating-point
// expressions; rounding is monotone, so the result is at least every
// entry, and the check is O(1). Other rows take the pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "predict/predictor.hpp"
#include "util/arena.hpp"

namespace skp {

class Lz78Predictor final : public Predictor {
 public:
  explicit Lz78Predictor(std::size_t n);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  // The pre-normalization row is written element-wise into P, then one
  // index-order pass takes its sum (the rounding the reference divides
  // by), keeps the entries that can clear `min_prob` and re-zeroes P;
  // only those entries are then divided. A root row whose bound is below
  // the candidate floor is returned empty before the pass.
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
           root_count_.capacity() * sizeof(double) +
           root_child_.capacity() * sizeof(std::uint32_t) +
           marginal_.capacity() * sizeof(double);
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
    std::uint32_t head = kNull;  // first edge (insertion order); unused
                                 // at the root
    std::uint32_t deg = 0;       // distinct successors
    std::uint64_t total = 0;
  };

  // The blend's terms at the current node, which must have observations.
  struct Blend {
    double esc;    // PPM-C escape: distinct / (total + distinct)
    double total;  // the node's observations
    double denom;  // total_ + n, the order-0 backstop's divisor
    // A symbol's escape-weighted order-0 backstop.
    double backstop(double marginal) const {
      return esc * ((marginal + 1.0) / denom);
    }
    // A successor's (1 - esc) * count / total share.
    double share(double count) const { return (1.0 - esc) * count / total; }
  };

  // The non-root node's edge for `sym`, or nullptr. Below the root,
  // out-degrees are small (the paper's sources have 10-20 successors
  // per state), so a linear scan of the list beats a hash.
  Edge* find_edge(Node& node, ItemId sym);
  Blend blend() const;
  // The reference's pre-normalization row at the current node, which
  // must have observations: each entry's backstop plus, for a successor,
  // its share. Writes all n entries of `p`.
  void blend_into(Blend b, std::span<double> p) const;

  std::size_t n_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  PoolArena<Edge> edges_;    // successors of the non-root nodes
  // The root's successors by symbol: traversal count (0 = no child) and
  // child node (kNull = none). Empty until the first observe.
  std::vector<double> root_count_;
  std::vector<std::uint32_t> root_child_;
  std::uint32_t current_ = 0;
  std::size_t depth_ = 0;
  std::size_t phrases_ = 0;
  std::vector<double> marginal_;
  // Running maxima of marginal_ and root_count_, which bound the root
  // and fresh-node rows in predict_filtered_into.
  double max_marginal_ = 0.0;
  double max_root_count_ = 0.0;
  std::uint64_t total_ = 0;
  // predict_filtered_into's survivor candidates, reused so it never
  // allocates.
  mutable std::vector<FilterCandidate> candidates_;
};

}  // namespace skp
