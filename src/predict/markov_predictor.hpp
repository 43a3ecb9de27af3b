// First-order Markov predictor with Laplace smoothing.
//
// Transition counts are stored sparsely: per state, an ascending list of
// (successor, count) pairs — the per-state successor table of the
// ChampSim Markov prefetchers, minus their width cap. Every unseen
// successor carries the same analytic Laplace floor laplace / denom, so
// predictions are bit-identical to a dense n x n count table while the
// state costs O(distinct transitions) instead of 8 n^2 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "predict/predictor.hpp"

namespace skp {

class MarkovPredictor final : public Predictor {
 public:
  // `laplace` > 0 smooths unseen transitions; smaller values trust the
  // counts more aggressively.
  explicit MarkovPredictor(std::size_t n, double laplace = 0.1);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  // Walks the last state's successor list when the Laplace floor itself
  // is filtered out (the usual case); otherwise every entry survives and
  // the dense path runs. A row without a context (the smoothed marginal)
  // takes the dense path too: on learned_des 3-13% of Markov1 rows have
  // none, and skipping them did not show end to end.
  void predict_filtered_into(double min_prob, std::vector<double>& P,
                             std::vector<ItemId>& support) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  // Raw transition count prev -> next (tests / diagnostics).
  std::uint64_t count(ItemId prev, ItemId next) const;
  ItemId last_item() const noexcept { return last_; }

 private:
  struct Successor {
    ItemId next;
    std::uint64_t count;
  };

  std::size_t n_;
  double laplace_;
  std::vector<std::vector<Successor>> succ_;  // [prev], ascending by next
  std::vector<std::uint64_t> row_total_;
  std::vector<std::uint64_t> marginal_;  // unconditioned access counts
  std::uint64_t total_ = 0;
  ItemId last_ = kNoItem;
};

}  // namespace skp
