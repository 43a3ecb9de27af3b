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

  // ---- Rows normalized as x_i / sum (LZ78, PPM) ------------------------
  // The reference divides every pre-normalization entry x_i by their
  // index-order sum, then filters. Dividing is skipped for an entry with
  // x < min_prob * sum * (1 - 1e-9): that margin guarantees
  // fl(x / sum) < min_prob, so the reference filters it to 0 anyway.
  // A sparse predictor makes one O(n) pass that sums x in index order
  // and keeps every x >= candidate_floor(min_prob) as a candidate, then
  // calls finish_normalized_row. The floor assumes sum >= 1/2 (the exact
  // row sum is 1); finish_normalized_row returns false when the computed
  // sum breaks that or is not finite, and the caller must then take the
  // dense path.
  struct FilterCandidate {
    ItemId id;
    double x;  // pre-normalization value
  };
  // True when `min_prob` admits the screen (positive and far from the
  // subnormal range, where the margin argument fails).
  static bool screenable(double min_prob) noexcept;
  static double candidate_floor(double min_prob) noexcept;
  // min_prob * scale * (1 - 1e-9): the screen above for any divisor
  // `scale` >= 1/2 (LZ78's unnormalized backstop divides by total + n).
  // An x below it has fl(x / scale) < min_prob, so the filter zeroes it
  // undivided.
  static double screen_below(double min_prob, double scale) noexcept;
  static bool finish_normalized_row(
      double min_prob, double sum,
      std::span<const FilterCandidate> candidates, std::vector<double>& P,
      std::vector<ItemId>& support);
};

}  // namespace skp
