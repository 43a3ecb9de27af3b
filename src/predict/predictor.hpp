// Access predictors — the "access model" the paper presupposes.
//
// The paper's performance model consumes next-access probabilities P_i from
// some external access model (its Section 1.1 surveys candidates). The
// simulators can run with the oracle P (the paper's setting) or with one of
// these learned predictors (the Section-6 "further work" integration):
//   * MarkovPredictor    — first-order transition counts with Laplace
//                          smoothing (cf. Padmanabhan & Mogul's dependency
//                          graph restricted to window 1).
//   * PpmPredictor       — order-k prediction by partial matching with
//                          escape blending (cf. Vitter & Krishnan's
//                          compression-based predictors).
//   * DependencyGraph    — lookahead-window co-occurrence counts
//                          (Padmanabhan & Mogul).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/item.hpp"

namespace skp {

// The min-prob filter every learned planning row goes through: sliver
// probabilities below `min_prob` are dropped to 0 before planning. NaN
// compares false, so it survives (and validation then rejects it).
inline double min_prob_filtered(double p, double min_prob) noexcept {
  return p < min_prob ? 0.0 : p;
}

class Predictor {
 public:
  virtual ~Predictor() = default;

  // Observes one request (in stream order).
  virtual void observe(ItemId item) = 0;

  // Writes the predicted next-access distribution over the catalog (given
  // everything observed so far) into `out`, resized to n_items(). Always a
  // proper distribution (sums to 1). This is the primitive: it reuses the
  // caller's buffer, so the sim hot loops predict once per request without
  // touching the allocator. It is also the reference the filtered form
  // below must reproduce bit for bit.
  virtual void predict_into(std::vector<double>& out) const = 0;

  // The planning row: exactly predict_into() followed by the min-prob
  // filter (min_prob_filtered on every entry), written into `P`, plus
  // the ascending ids of P's nonzero entries (NaN included) in
  // `support`. `P` is updated incrementally — only the previous call's
  // support is re-zeroed — so on entry it must be zero outside
  // `support`: either the previous call's output (entries may have been
  // zeroed since, never raised), or any buffer of the wrong size (it is
  // then reset to n_items() zeros and `support` ignored). Sparse
  // implementations cost O(support) plus whatever the reference needs
  // to stay bit-identical; this default is dense predict plus filter.
  virtual void predict_filtered_into(double min_prob, std::vector<double>& P,
                                     std::vector<ItemId>& support) const;

  // Convenience wrapper returning a fresh vector.
  std::vector<double> predict() const {
    std::vector<double> out;
    predict_into(out);
    return out;
  }

  // Catalog size.
  virtual std::size_t n_items() const = 0;

  virtual void reset() = 0;

 protected:
  // Brings `P` to n_items() zeros by the incremental contract above
  // (touching only the previous support) and clears `support`.
  void clear_filtered_row(std::vector<double>& P,
                          std::vector<ItemId>& support) const;
  // True when the reference row filters to all zeros. O(n) and
  // allocating: for SKP_ASSERT on the paths that skip the row.
  bool filters_to_empty(double min_prob) const;

  // ---- Rows normalized as x_i / sum (LZ78, PPM) ------------------------
  // The reference divides every pre-normalization entry x_i by their
  // index-order sum, then filters. Dividing is skipped for an entry with
  // x < min_prob * sum * (1 - 1e-9): that margin guarantees
  // fl(x / sum) < min_prob, so the reference filters it to 0 anyway.
  // A sparse predictor makes one O(n) pass that sums x in index order
  // and keeps every x >= candidate_floor(min_prob) as a candidate, then
  // calls finish_normalized_row. The floor assumes sum >= 1 - 2^-20;
  // finish_normalized_row checks the computed sum against that (and
  // against sum <= 1 + 2^-20 and finiteness) and returns false when it
  // fails, and the caller must then take the dense path. A row that sums
  // to 1 in real arithmetic always passes: each escape level claims its
  // share and passes the rest to a backstop that sums to 1 (in LZ78, the
  // marginals plus n sum to total + n, and a node's child counts sum to
  // its total). Each computed entry is within 24 units of roundoff
  // (u = 2^-53, relative) of its real value: PPM's escape chain over at
  // most 8 orders is the longest, 2 roundings per order plus 6 in the
  // backstop, and 0.9 + 0.1 in doubles exceeds 1 by a quarter unit. The
  // index-order sum of n entries adds at most (n - 1) u, so the computed
  // sum is within (n + 32) u of 1: under 2^-21 for any n <= 2^31 (ItemId
  // is 32-bit), half the window. So a row whose largest x is below the
  // floor filters to nothing, and a predictor that can bound that
  // largest x before the pass (LZ78) may return the empty row without
  // summing: the sum it skips would pass the check. The check itself is
  // what makes the floor sound on the pass, so a row that does not sum
  // to 1 (PPM with every symbol claimed) is still screened correctly
  // whenever its sum lands in the window.
  struct FilterCandidate {
    ItemId id;
    double x;  // pre-normalization value
  };
  // True when `min_prob` admits the screen (positive and far from the
  // subnormal range, where the margin argument fails).
  static bool screenable(double min_prob) noexcept;
  static double candidate_floor(double min_prob) noexcept;
  // min_prob * scale * (1 - 1e-9): the screen above for any divisor
  // `scale` >= 1 - 2^-20 (LZ78's unnormalized backstop divides by
  // total + n). An x below it has fl(x / scale) < min_prob, so the
  // filter zeroes it undivided.
  static double screen_below(double min_prob, double scale) noexcept;
  static bool finish_normalized_row(
      double min_prob, double sum,
      std::span<const FilterCandidate> candidates, std::vector<double>& P,
      std::vector<ItemId>& support);

  // ---- Per-count value tables (LZ78, PPM) --------------------------------
  // Per-item counts of the normalized rows. Every count is at most the
  // predictor's observation total, which observe() keeps below 2^32.
  using Count = std::uint32_t;
  static constexpr std::uint64_t kMaxObservations =
      std::numeric_limits<Count>::max();

  // A row term that depends only on an item's count c, read from
  // `values` = f(0), ..., f(max_count), which the constructor fills when
  // max_count < n: a row then evaluates f at most n times, once per
  // possible count instead of once per entry (the counts on a
  // learned_des chain stay below 60 while n = 1000). A larger max_count
  // leaves the table empty and every term is evaluated inline, once per
  // entry as without a table; a table capped at n - 1 would evaluate f
  // up to 2n times when most counts exceed n (a long stream over a small
  // catalog). f takes the count as a double, as the row's own expression
  // does, so a looked-up term is the inline one bit for bit. Indexing
  // with an integer count keeps the lookup as cheap as a load
  // (DESIGN.md D10).
  template <typename F>
  class CountTable {
   public:
    CountTable(std::vector<double>& values, Count max_count, std::size_t n,
               F f)
        : f_(f) {
      values.resize(max_count < n ? std::size_t{max_count} + 1 : 0);
      for (std::size_t c = 0; c < values.size(); ++c) {
        values[c] = f(static_cast<double>(c));
      }
      data_ = values.data();
      size_ = values.size();
    }
    double operator()(Count c) const {
      return c < size_ ? data_[c] : f_(static_cast<double>(c));
    }

   private:
    F f_;
    const double* data_ = nullptr;
    std::size_t size_ = 0;
  };
};

}  // namespace skp
