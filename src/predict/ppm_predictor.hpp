// Order-k PPM (prediction by partial matching) predictor.
//
// Contexts of length k, k-1, ..., 0 are blended with PPM-C style escape
// weights: the order-m context predicts with its counts and escapes to
// order m-1 with probability (#distinct successors) / (total + #distinct).
// Vitter & Krishnan showed compression-style predictors of this family are
// asymptotically optimal for Markov sources, which is exactly the source
// the Fig. 7 experiment uses.
//
// Storage is arena-backed (util/arena.hpp): per order, an open-addressing
// key -> context-index map plus pooled 16-byte context headers and
// pooled successor edges, replacing one unordered_map of ContextStats
// (itself holding an unordered_map) per context. The blend consumes each
// context's successor set through order-independent integer sums and a
// single per-symbol touch (exclusion flags), so predictions are
// bit-identical to the map-based predecessor regardless of edge order.
// Marginal counts are 32-bit integers (observe() rejects the 2^32-th
// observation). An open symbol's order-0 backstop depends only on its
// count, so each row reads it from a per-count table
// (Predictor::CountTable) in one index-order pass that the dense and
// filtered rows share (blend_pass): on learned_des the table holds
// about 60 terms where the row has 1,000.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "predict/predictor.hpp"
#include "util/arena.hpp"

namespace skp {

class PpmPredictor final : public Predictor {
 public:
  PpmPredictor(std::size_t n, std::size_t order = 2);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  // The escape blend touches only the contexts' successors; one
  // index-order pass then forms every entry, takes the sum and keeps the
  // entries that can clear `min_prob`, and only those are divided.
  void predict_filtered_into(double min_prob, std::vector<double>& P,
                             std::vector<ItemId>& support) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  std::size_t order() const noexcept { return order_; }
  // Heap bytes behind the context tables (capacity bench).
  std::size_t footprint_bytes() const noexcept {
    std::size_t total = contexts_.footprint_bytes() +
                        edges_.footprint_bytes() +
                        marginal_.capacity() * sizeof(Count);
    for (const Key64Map& t : tables_) total += t.footprint_bytes();
    return total;
  }

 private:
  static constexpr std::uint32_t kNull = PoolArena<int>::kNull;
  struct Context {
    std::uint32_t head = kNull;  // first successor edge
    std::uint64_t total = 0;
  };
  struct Edge {
    ItemId sym;
    std::uint64_t count;
    std::uint32_t next;
  };

  // Encodes a context (sequence of up to `order_` item ids) into a key.
  static std::uint64_t context_key(const std::deque<ItemId>& hist,
                                   std::size_t len, std::size_t n);
  // The PPM-C escape blend from the longest context down: adds each
  // not-yet-excluded successor's share into `p` (zero there on entry),
  // flags it in excluded_ and lists it in claimed_ (both reset first,
  // through the previous claimed_). Returns the mass left unclaimed for
  // the order-0 backstop.
  double blend_contexts(std::span<double> p) const;
  // The one index-order pass over the pre-normalization row: blends the
  // contexts into `p` (zero on entry), then forms entry i as its claimed
  // share, re-zeroing p[i], or for an open symbol the order-0 backstop:
  // its marginal among the open symbols (uniform when those are all 0),
  // blended with a uniform floor so unseen items keep mass, scaled by
  // the unclaimed mass. Calls visit(i, x_i) in index order and returns
  // the index-order sum of the x_i.
  template <typename Visit>
  double blend_pass(std::span<double> p, Visit visit) const;

  std::size_t n_;
  std::size_t order_;
  std::vector<Key64Map> tables_;  // per order: context key -> contexts_ idx
  PoolArena<Context> contexts_;   // shared across orders
  PoolArena<Edge> edges_;
  std::vector<Count> marginal_;
  Count max_marginal_ = 0;  // running maximum; sizes the count table
  std::uint64_t total_ = 0;
  std::deque<ItemId> history_;  // most recent at back, length <= order_
  // Per-predict escape-exclusion flags, reused so predict_into never
  // allocates. Set exactly on claimed_ between predicts, so each blend
  // clears only those.
  mutable std::vector<char> excluded_;
  // Per-predict scratch: the symbols the blend excluded, in exclusion
  // order, the backstop's count table and predict_filtered_into's
  // survivor candidates.
  mutable std::vector<ItemId> claimed_;
  mutable std::vector<double> backstop_table_;
  mutable std::vector<FilterCandidate> candidates_;
};

}  // namespace skp
