#include "predict/markov_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

namespace {

template <typename List>
auto find_successor(List& list, ItemId next) {
  return std::lower_bound(
      list.begin(), list.end(), next,
      [](const auto& s, ItemId id) { return s.next < id; });
}

}  // namespace

MarkovPredictor::MarkovPredictor(std::size_t n, double laplace)
    : n_(n), laplace_(laplace) {
  SKP_REQUIRE(n > 0, "MarkovPredictor over empty catalog");
  SKP_REQUIRE(laplace > 0.0, "laplace must be positive");
  succ_.resize(n);
  row_total_.assign(n, 0);
  marginal_.assign(n, 0);
}

void MarkovPredictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  const auto i = static_cast<std::size_t>(item);
  if (last_ != kNoItem) {
    const auto p = static_cast<std::size_t>(last_);
    std::vector<Successor>& list = succ_[p];
    const auto it = find_successor(list, item);
    if (it != list.end() && it->next == item) {
      ++it->count;
    } else {
      list.insert(it, Successor{item, 1});
    }
    ++row_total_[p];
  }
  ++marginal_[i];
  ++total_;
  last_ = item;
}

void MarkovPredictor::predict_into(std::vector<double>& out) const {
  out.resize(n_);
  if (last_ == kNoItem || row_total_[static_cast<std::size_t>(last_)] == 0) {
    // No context yet: fall back to the (smoothed) marginal distribution.
    const double denom =
        static_cast<double>(total_) + laplace_ * static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = (static_cast<double>(marginal_[i]) + laplace_) / denom;
    }
    return;
  }
  const auto row = static_cast<std::size_t>(last_);
  const double denom = static_cast<double>(row_total_[row]) +
                       laplace_ * static_cast<double>(n_);
  // An unseen successor's (0 + laplace) / denom is exactly the floor.
  std::fill(out.begin(), out.end(), laplace_ / denom);
  for (const Successor& s : succ_[row]) {
    out[static_cast<std::size_t>(s.next)] =
        (static_cast<double>(s.count) + laplace_) / denom;
  }
}

void MarkovPredictor::predict_filtered_into(
    double min_prob, std::vector<double>& P,
    std::vector<ItemId>& support) const {
  if (last_ == kNoItem || row_total_[static_cast<std::size_t>(last_)] == 0) {
    Predictor::predict_filtered_into(min_prob, P, support);
    return;
  }
  const auto row = static_cast<std::size_t>(last_);
  const double denom = static_cast<double>(row_total_[row]) +
                       laplace_ * static_cast<double>(n_);
  if (min_prob_filtered(laplace_ / denom, min_prob) != 0.0) {
    // The floor survives, so every entry does: nothing to skip.
    Predictor::predict_filtered_into(min_prob, P, support);
    return;
  }
  clear_filtered_row(P, support);
  for (const Successor& s : succ_[row]) {
    const double p = min_prob_filtered(
        (static_cast<double>(s.count) + laplace_) / denom, min_prob);
    if (p == 0.0) continue;
    P[static_cast<std::size_t>(s.next)] = p;
    support.push_back(s.next);
  }
}

void MarkovPredictor::reset() {
  for (auto& list : succ_) list.clear();
  std::fill(row_total_.begin(), row_total_.end(), 0);
  std::fill(marginal_.begin(), marginal_.end(), 0);
  total_ = 0;
  last_ = kNoItem;
}

std::uint64_t MarkovPredictor::count(ItemId prev, ItemId next) const {
  SKP_REQUIRE(prev >= 0 && static_cast<std::size_t>(prev) < n_, "prev");
  SKP_REQUIRE(next >= 0 && static_cast<std::size_t>(next) < n_, "next");
  const std::vector<Successor>& list = succ_[static_cast<std::size_t>(prev)];
  const auto it = find_successor(list, next);
  return it != list.end() && it->next == next ? it->count : 0;
}

}  // namespace skp
