#include "predict/ppm_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

PpmPredictor::PpmPredictor(std::size_t n, std::size_t order)
    : n_(n), order_(order) {
  SKP_REQUIRE(n > 0, "PpmPredictor over empty catalog");
  SKP_REQUIRE(order >= 1 && order <= 8, "order must be in [1, 8]");
  tables_.resize(order);
  marginal_.assign(n, 0);
  excluded_.assign(n, 0);
}

std::uint64_t PpmPredictor::context_key(const std::deque<ItemId>& hist,
                                        std::size_t len, std::size_t n) {
  // Base-(n+1) positional encoding of the last `len` items; 64 bits hold
  // order <= 8 over catalogs up to ~2^8 per symbol times n — for larger
  // catalogs collisions only blur counts, never break correctness. The
  // leading 1 also keeps every key nonzero, which Key64Map requires.
  std::uint64_t key = 1;  // leading 1 distinguishes lengths
  const std::uint64_t base = static_cast<std::uint64_t>(n) + 1;
  const std::size_t start = hist.size() - len;
  for (std::size_t i = start; i < hist.size(); ++i) {
    key = key * base + static_cast<std::uint64_t>(hist[i]) + 1;
  }
  return key;
}

void PpmPredictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  // Update every context length that currently has enough history.
  for (std::size_t len = 1; len <= std::min(order_, history_.size());
       ++len) {
    const std::uint64_t key = context_key(history_, len, n_);
    Key64Map& table = tables_[len - 1];
    std::uint32_t ctx = table.find(key);
    if (ctx == Key64Map::kNotFound) {
      ctx = contexts_.alloc(Context{});
      table.insert(key, ctx);
    }
    Context& stats = contexts_[ctx];
    ++stats.total;
    bool found = false;
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      if (edges_[e].sym == item) {
        ++edges_[e].count;
        found = true;
        break;
      }
    }
    if (!found) {
      stats.head = edges_.alloc(Edge{item, 1, stats.head});
    }
  }
  ++marginal_[static_cast<std::size_t>(item)];
  ++total_;
  history_.push_back(item);
  if (history_.size() > order_) history_.pop_front();
}

double PpmPredictor::blend_contexts(std::vector<double>& p) const {
  double remaining = 1.0;  // probability mass not yet claimed (escapes)
  std::vector<char>& excluded = excluded_;
  std::fill(excluded.begin(), excluded.end(), 0);
  claimed_.clear();

  for (std::size_t len = std::min(order_, history_.size()); len >= 1;
       --len) {
    const std::uint64_t key = context_key(history_, len, n_);
    const std::uint32_t ctx = tables_[len - 1].find(key);
    if (ctx == Key64Map::kNotFound || contexts_[ctx].total == 0) continue;
    const Context& stats = contexts_[ctx];
    // PPM-C: escape weight = distinct successors / (total + distinct),
    // computed over not-yet-excluded symbols. Integer sums over the edge
    // list are iteration-order independent.
    std::uint64_t total = 0;
    std::uint64_t distinct = 0;
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      if (excluded[static_cast<std::size_t>(edges_[e].sym)]) continue;
      total += edges_[e].count;
      ++distinct;
    }
    if (total == 0) continue;
    const double denom = static_cast<double>(total + distinct);
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      const auto sym = static_cast<std::size_t>(edges_[e].sym);
      if (excluded[sym]) continue;
      p[sym] += remaining * static_cast<double>(edges_[e].count) / denom;
      excluded[sym] = 1;
      claimed_.push_back(edges_[e].sym);
    }
    remaining *= static_cast<double>(distinct) / denom;
  }
  return remaining;
}

void PpmPredictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.assign(n_, 0.0);
  const double remaining = blend_contexts(p);
  const std::vector<char>& excluded = excluded_;

  // Order-0 / uniform backstop over not-yet-excluded symbols.
  std::uint64_t marg_total = 0;
  std::size_t open = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!excluded[i]) {
      marg_total += marginal_[i];
      ++open;
    }
  }
  if (open > 0) {
    const double uniform = 1.0 / static_cast<double>(open);
    for (std::size_t i = 0; i < n_; ++i) {
      if (excluded[i]) continue;
      p[i] += backstop_share(i, marg_total, uniform, remaining);
    }
  } else {
    // Everything claimed at higher orders; renormalize below handles it.
  }

  // Normalize (escape arithmetic can leave tiny residue).
  double sum = 0.0;
  for (double x : p) sum += x;
  if (sum <= 0.0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
    return;
  }
  for (double& x : p) x /= sum;
}

void PpmPredictor::predict_filtered_into(
    double min_prob, std::vector<double>& P,
    std::vector<ItemId>& support) const {
  if (!screenable(min_prob)) {
    Predictor::predict_filtered_into(min_prob, P, support);
    return;
  }
  clear_filtered_row(P, support);
  // The blend claims straight into P, which is zero everywhere now.
  const double remaining = blend_contexts(P);
  const std::vector<char>& excluded = excluded_;

  // Backstop mass over the open symbols, from the claimed ones: every
  // observation is one marginal count, so the integers stay exact.
  const std::size_t open = n_ - claimed_.size();
  if (open == 0) {
    // Every symbol claimed: the row is rescaled by a sum below 1, which
    // the screen does not cover.
    Predictor::predict_filtered_into(min_prob, P, support);
    return;
  }
  std::uint64_t marg_total = total_;
  for (const ItemId sym : claimed_) {
    marg_total -= marginal_[static_cast<std::size_t>(sym)];
  }
  const double uniform = 1.0 / static_cast<double>(open);
  const double floor = candidate_floor(min_prob);
  candidates_.clear();
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    double x = P[i];
    if (!excluded[i]) x += backstop_share(i, marg_total, uniform, remaining);
    sum += x;
    if (x >= floor) candidates_.push_back({static_cast<ItemId>(i), x});
  }
  for (const ItemId sym : claimed_) P[static_cast<std::size_t>(sym)] = 0.0;
  if (!finish_normalized_row(min_prob, sum, candidates_, P, support)) {
    Predictor::predict_filtered_into(min_prob, P, support);
  }
}

void PpmPredictor::reset() {
  for (auto& t : tables_) t.clear();
  contexts_.clear();
  edges_.clear();
  std::fill(marginal_.begin(), marginal_.end(), 0);
  total_ = 0;
  history_.clear();
}

}  // namespace skp
