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
// (itself holding an unordered_map) per context. observe() looks up the
// contexts of the history it leaves behind, so a predict hashes nothing.
// The blend consumes each context's successor set through
// order-independent integer sums and a single per-symbol touch
// (exclusion bits), so predictions are bit-identical to the map-based
// predecessor regardless of edge order. Marginal counts are 32-bit
// integers (observe() rejects the 2^32-th observation). An open symbol's
// order-0 backstop depends only on its count, so each row reads it from
// a per-count table (Predictor::CountTable) in one index-order pass that
// the dense and filtered rows share (blend_pass): on learned_des the
// table holds about 60 terms where the row has 1,000. The pass walks the
// claimed symbols in ascending id order and adds the runs of open
// symbols between them straight from the table, so it costs little more
// than the index-order sum it must keep (DESIGN.md D10).
#pragma once

#include <array>
#include <cstdint>
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
  // index-order pass then sums every entry and keeps the entries that
  // can clear `min_prob`, and only those are divided. The open symbols
  // are only summed when even the largest backstop term is below the
  // candidate floor.
  void predict_filtered_into(double min_prob, std::vector<double>& P,
                             std::vector<ItemId>& support) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  std::size_t order() const noexcept { return order_; }

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

  static constexpr std::size_t kMaxOrder = 8;
  // Word and bit of `sym` in excluded_.
  static std::size_t word_of(ItemId sym) noexcept {
    return static_cast<std::size_t>(sym) / 64;
  }
  static std::uint64_t bit_of(ItemId sym) noexcept {
    return std::uint64_t{1} << (static_cast<std::size_t>(sym) % 64);
  }

  // The PPM-C escape blend from the longest context down: adds each
  // not-yet-excluded successor's share into `p` (zero there on entry),
  // sets its bit in excluded_ and lists it in claimed_ (both reset first,
  // through the previous claimed_). Returns the mass left unclaimed for
  // the order-0 backstop.
  double blend_contexts(std::span<double> p) const;
  // The one index-order pass over the pre-normalization row: blends the
  // contexts into `p` (zero on entry), then forms entry i as its claimed
  // share, re-zeroing p[i], or for an open symbol the order-0 backstop:
  // its marginal among the open symbols (uniform when those are all 0),
  // blended with a uniform floor so unseen items keep mass, scaled by
  // the unclaimed mass. Returns the index-order sum of the x_i, and calls
  // visit(i, x_i) in index order for every claimed entry, and for every
  // open one unless the largest backstop term is below `visit_floor`
  // (then no open x_i reaches it; 0 visits them all). Open entries of
  // `p` are read and written only by `visit`.
  template <typename Visit>
  double blend_pass(std::span<double> p, double visit_floor,
                    Visit visit) const;

  std::size_t n_;
  std::size_t order_;
  std::vector<Key64Map> tables_;  // per order: context key -> contexts_ idx
  PoolArena<Context> contexts_;   // shared across orders
  PoolArena<Edge> edges_;
  std::vector<Count> marginal_;
  Count max_marginal_ = 0;  // running maximum; sizes the count table
  std::uint64_t total_ = 0;
  // The history's contexts: the last min(order_, #observations) items
  // (depth_); entry len - 1 of key_ is the key of the last len items and
  // of context_ its contexts_ index in tables_[len - 1] (kNotFound until
  // an item is observed after it).
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kMaxOrder> key_{};
  std::array<std::uint32_t, kMaxOrder> context_{};
  // Per-predict escape-exclusion bits, one per symbol, reused so
  // predict_into never allocates. Set exactly on claimed_ between
  // predicts, so each blend clears only those words.
  mutable std::vector<std::uint64_t> excluded_;
  // Per-predict scratch: the symbols the blend excluded, in exclusion
  // order, the backstop's count table and predict_filtered_into's
  // survivor candidates.
  mutable std::vector<ItemId> claimed_;
  mutable std::vector<double> backstop_table_;
  mutable std::vector<FilterCandidate> candidates_;
};

}  // namespace skp
