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
  SKP_REQUIRE(total_ < kMaxObservations,
              "PpmPredictor holds at most " << kMaxObservations
                                            << " observations");
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
  max_marginal_ =
      std::max(max_marginal_, ++marginal_[static_cast<std::size_t>(item)]);
  ++total_;
  history_.push_back(item);
  if (history_.size() > order_) history_.pop_front();
}

double PpmPredictor::blend_contexts(std::span<double> p) const {
  double remaining = 1.0;  // probability mass not yet claimed (escapes)
  std::vector<char>& excluded = excluded_;
  for (const ItemId sym : claimed_) excluded[static_cast<std::size_t>(sym)] = 0;
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

template <typename Visit>
double PpmPredictor::blend_pass(std::span<double> p, Visit visit) const {
  const double remaining = blend_contexts(p);
  const std::size_t open = n_ - claimed_.size();
  // Every observation is one marginal count, so the open symbols'
  // counts are the total less the claimed ones (exact integers).
  std::uint64_t open_total = total_;
  for (const ItemId sym : claimed_) {
    open_total -= marginal_[static_cast<std::size_t>(sym)];
  }
  const double marg_total = static_cast<double>(open_total);
  const double uniform = open > 0 ? 1.0 / static_cast<double>(open) : 0.0;
  // With every symbol claimed the table is never read.
  const CountTable backstop(
      backstop_table_, open > 0 ? max_marginal_ : 0, n_,
      [remaining, marg_total, uniform](double m) {
        return marg_total > 0.0
                   ? remaining * (0.9 * (m / marg_total) + 0.1 * uniform)
                   : remaining * (0.9 * uniform + 0.1 * uniform);
      });
  // The reference adds the backstop times the 0/1 open flag onto the
  // claimed share: an open symbol's +0.0 + backstop is the backstop,
  // and a claimed share plus +0.0 is the share.
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double x = excluded_[i] ? p[i] : backstop(marginal_[i]);
    p[i] = 0.0;
    sum += x;
    visit(i, x);
  }
  return sum;
}

void PpmPredictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.assign(n_, 0.0);
  const double sum =
      blend_pass(p, [&p](std::size_t i, double x) { p[i] = x; });
  // Normalize (escape arithmetic can leave tiny residue). With every
  // symbol claimed at higher orders this rescales the claimed shares.
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
  const double floor = candidate_floor(min_prob);
  candidates_.clear();
  const double sum = blend_pass(P, [this, floor](std::size_t i, double x) {
    if (x >= floor) candidates_.push_back({static_cast<ItemId>(i), x});
  });
  if (!finish_normalized_row(min_prob, sum, candidates_, P, support)) {
    Predictor::predict_filtered_into(min_prob, P, support);
  }
}

void PpmPredictor::reset() {
  for (auto& t : tables_) t.clear();
  contexts_.clear();
  edges_.clear();
  std::fill(marginal_.begin(), marginal_.end(), 0);
  max_marginal_ = 0;
  total_ = 0;
  history_.clear();
}

}  // namespace skp
