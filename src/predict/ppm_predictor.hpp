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
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "predict/predictor.hpp"
#include "util/arena.hpp"

namespace skp {

class PpmPredictor final : public Predictor {
 public:
  PpmPredictor(std::size_t n, std::size_t order = 2);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  // The escape blend touches only the contexts' successors; one fused
  // O(n) pass then adds the backstop and takes the index-order sum, and
  // only the entries that can clear `min_prob` are divided.
  void predict_filtered_into(double min_prob, std::vector<double>& P,
                             std::vector<ItemId>& support) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  std::size_t order() const noexcept { return order_; }
  // Heap bytes behind the context tables (capacity bench).
  std::size_t footprint_bytes() const noexcept {
    std::size_t total = contexts_.footprint_bytes() +
                        edges_.footprint_bytes() +
                        marginal_.capacity() * sizeof(std::uint64_t);
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
  // flags it in excluded_ and lists it in claimed_ (both reset first).
  // Returns the mass left unclaimed for the order-0 backstop.
  double blend_contexts(std::vector<double>& p) const;
  // Order-0 share of open symbol i: its marginal among the open symbols'
  // `marg_total` (uniform when that is 0), blended with a uniform floor
  // so unseen items keep mass, scaled by the unclaimed mass.
  double backstop_share(std::size_t i, std::uint64_t marg_total,
                        double uniform, double remaining) const {
    const double base = marg_total > 0
                            ? static_cast<double>(marginal_[i]) /
                                  static_cast<double>(marg_total)
                            : uniform;
    return remaining * (0.9 * base + 0.1 * uniform);
  }

  std::size_t n_;
  std::size_t order_;
  std::vector<Key64Map> tables_;  // per order: context key -> contexts_ idx
  PoolArena<Context> contexts_;   // shared across orders
  PoolArena<Edge> edges_;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
  std::deque<ItemId> history_;  // most recent at back, length <= order_
  // Per-predict escape-exclusion flags, reused so predict_into never
  // allocates. Each predict resets them in full on entry.
  mutable std::vector<char> excluded_;
  // predict_filtered_into scratch: the symbols the blend excluded, in
  // exclusion order, and the survivor candidates.
  mutable std::vector<ItemId> claimed_;
  mutable std::vector<FilterCandidate> candidates_;
};

}  // namespace skp
