#include "predict/predictor.hpp"

namespace skp {

void Predictor::predict_filtered_into(double min_prob, std::vector<double>& P,
                                      std::vector<ItemId>& support) const {
  predict_into(P);
  support.clear();
  for (std::size_t i = 0; i < P.size(); ++i) {
    P[i] = min_prob_filtered(P[i], min_prob);
    if (P[i] != 0.0) support.push_back(static_cast<ItemId>(i));
  }
}

void Predictor::clear_filtered_row(std::vector<double>& P,
                                   std::vector<ItemId>& support) const {
  const std::size_t n = n_items();
  if (P.size() != n) {
    P.assign(n, 0.0);
  } else {
    for (const ItemId id : support) P[static_cast<std::size_t>(id)] = 0.0;
  }
  support.clear();
}

namespace {

// Bounds on the computed row sum under which the candidate floor holds.
constexpr double kSumLo = 0.5;
constexpr double kSumHi = 2.0;
// Relative screening margin; dwarfs the few ulps of rounding in
// min_prob * sum and x / sum.
constexpr double kScreenMargin = 1.0 - 1e-9;

}  // namespace

bool Predictor::screenable(double min_prob) noexcept {
  return min_prob >= 1e-300;
}

double Predictor::screen_below(double min_prob, double scale) noexcept {
  return min_prob * scale * kScreenMargin;
}

double Predictor::candidate_floor(double min_prob) noexcept {
  return screen_below(min_prob, kSumLo);
}

bool Predictor::finish_normalized_row(
    double min_prob, double sum, std::span<const FilterCandidate> candidates,
    std::vector<double>& P, std::vector<ItemId>& support) {
  if (!(sum >= kSumLo && sum <= kSumHi)) return false;
  const double screen = screen_below(min_prob, sum);
  for (const FilterCandidate& c : candidates) {
    if (c.x < screen) continue;
    const double p = min_prob_filtered(c.x / sum, min_prob);
    if (p == 0.0) continue;
    P[static_cast<std::size_t>(c.id)] = p;
    support.push_back(c.id);
  }
  return true;
}

}  // namespace skp
