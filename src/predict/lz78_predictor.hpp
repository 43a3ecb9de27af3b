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
// Marginal and root counts are 32-bit integers (observe() rejects the
// 2^32-th observation). A blended row's backstop and, at the root, its
// shares depend only on those counts, so each row reads them from
// per-count tables (Predictor::CountTable) and forms every entry in one
// index-order pass: the largest counts on a learned_des chain stay
// below 60 while n = 1000, so a table holds about 60 terms where the
// row has 1,000 (two tables at the root). The dense and filtered rows
// share that pass (blend_pass).
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
  // One index-order pass forms the pre-normalization row, takes its sum
  // (the rounding the reference divides by) and keeps the entries that
  // can clear `min_prob`; only those entries are then divided. A root
  // row whose bound is below the candidate floor is returned empty
  // before the pass.
  void predict_filtered_into(double min_prob, std::vector<double>& P,
                             std::vector<ItemId>& support) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  // Diagnostics.
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t phrase_count() const noexcept { return phrases_; }
  std::size_t current_depth() const noexcept { return depth_; }

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
  // The one index-order pass over the pre-normalization row at the
  // current node, which must have observations: entry i is its backstop
  // plus, for a successor, its share, in the reference's operand order
  // (at the root both from the count tables; below it the node's edge
  // shares are scattered into `p`, which must be zero, and re-zeroed as
  // the pass reads them). Calls visit(i, x_i) in index order and returns
  // the index-order sum of the x_i.
  template <typename Visit>
  double blend_pass(Blend b, std::span<double> p, Visit visit) const;

  std::size_t n_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  PoolArena<Edge> edges_;    // successors of the non-root nodes
  // The root's successors by symbol: traversal count (0 = no child) and
  // child node (kNull = none). Empty until the first observe.
  std::vector<Count> root_count_;
  std::vector<std::uint32_t> root_child_;
  std::uint32_t current_ = 0;
  std::size_t depth_ = 0;
  std::size_t phrases_ = 0;
  std::vector<Count> marginal_;
  // Running maxima of marginal_ and root_count_: they bound the root and
  // fresh-node rows in predict_filtered_into and size the count tables.
  Count max_marginal_ = 0;
  Count max_root_count_ = 0;
  std::uint64_t total_ = 0;
  // Per-row scratch, reused so predicting never allocates after warm-up:
  // the count tables and predict_filtered_into's survivor candidates.
  mutable std::vector<double> backstop_table_;
  mutable std::vector<double> share_table_;
  mutable std::vector<FilterCandidate> candidates_;
};

}  // namespace skp
