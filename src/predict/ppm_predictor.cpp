#include "predict/ppm_predictor.hpp"

#include <algorithm>
#include <bit>

#include "util/require.hpp"

namespace skp {

PpmPredictor::PpmPredictor(std::size_t n, std::size_t order)
    : n_(n), order_(order) {
  SKP_REQUIRE(n > 0, "PpmPredictor over empty catalog");
  SKP_REQUIRE(order >= 1 && order <= kMaxOrder, "order must be in [1, 8]");
  tables_.resize(order);
  marginal_.assign(n, 0);
  excluded_.assign((n + 63) / 64, 0);
}

void PpmPredictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  SKP_REQUIRE(total_ < kMaxObservations,
              "PpmPredictor holds at most " << kMaxObservations
                                            << " observations");
  // Update every context length that currently has enough history; the
  // previous observe looked each one up (kNotFound: first seen now).
  for (std::size_t len = 1; len <= depth_; ++len) {
    std::uint32_t& ctx = context_[len - 1];
    if (ctx == Key64Map::kNotFound) {
      ctx = contexts_.alloc(Context{});
      tables_[len - 1].insert(key_[len - 1], ctx);
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
  // Key of a context: the base-(n+1) digits id + 1 of its items, oldest
  // first, after a leading 1 that distinguishes lengths and keeps every
  // key nonzero, which Key64Map requires. 64 bits hold order <= 8 over
  // catalogs up to ~2^8 per symbol times n — for larger catalogs
  // collisions only blur counts, never break correctness. The new
  // history's context of length len is the old one of length len - 1
  // followed by `item`, so its key is that shorter key plus one digit.
  depth_ = std::min(depth_ + 1, order_);
  const std::uint64_t base = static_cast<std::uint64_t>(n_) + 1;
  for (std::size_t len = depth_; len >= 1; --len) {
    const std::uint64_t shorter = len > 1 ? key_[len - 2] : 1;
    key_[len - 1] = shorter * base + static_cast<std::uint64_t>(item) + 1;
    context_[len - 1] = tables_[len - 1].find(key_[len - 1]);
  }
}

double PpmPredictor::blend_contexts(std::span<double> p) const {
  double remaining = 1.0;  // probability mass not yet claimed (escapes)
  std::vector<std::uint64_t>& excluded = excluded_;
  for (const ItemId sym : claimed_) excluded[word_of(sym)] = 0;
  claimed_.clear();

  for (std::size_t len = depth_; len >= 1; --len) {
    const std::uint32_t ctx = context_[len - 1];
    if (ctx == Key64Map::kNotFound || contexts_[ctx].total == 0) continue;
    const Context& stats = contexts_[ctx];
    // PPM-C: escape weight = distinct successors / (total + distinct),
    // computed over not-yet-excluded symbols. Integer sums over the edge
    // list are iteration-order independent.
    std::uint64_t total = 0;
    std::uint64_t distinct = 0;
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      if (excluded[word_of(edges_[e].sym)] & bit_of(edges_[e].sym)) continue;
      total += edges_[e].count;
      ++distinct;
    }
    if (total == 0) continue;
    const double denom = static_cast<double>(total + distinct);
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      const ItemId sym = edges_[e].sym;
      std::uint64_t& word = excluded[word_of(sym)];
      if (word & bit_of(sym)) continue;
      p[static_cast<std::size_t>(sym)] +=
          remaining * static_cast<double>(edges_[e].count) / denom;
      word |= bit_of(sym);
      claimed_.push_back(sym);
    }
    remaining *= static_cast<double>(distinct) / denom;
  }
  return remaining;
}

template <typename Visit>
double PpmPredictor::blend_pass(std::span<double> p, double visit_floor,
                                Visit visit) const {
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
  // The backstop never falls as the count grows (each rounding is
  // monotone), so no open term exceeds the one at the largest count.
  const bool visit_open = backstop(max_marginal_) >= visit_floor;
  // The reference adds the backstop times the 0/1 open flag onto the
  // claimed share: an open symbol's +0.0 + backstop is the backstop,
  // and a claimed share plus +0.0 is the share. The claimed ids, in
  // ascending order from the exclusion bits, split the row into runs of
  // open symbols, so the sum takes every term in index order.
  double sum = 0.0;
  std::size_t i = 0;  // the next entry to add
  const auto add_open_run = [&](std::size_t end) {
    if (visit_open) {
      for (; i < end; ++i) {
        const double x = backstop(marginal_[i]);
        sum += x;
        visit(i, x);
      }
    } else {
      for (; i < end; ++i) sum += backstop(marginal_[i]);
    }
  };
  for (std::size_t w = 0; w < excluded_.size(); ++w) {
    for (std::uint64_t bits = excluded_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t c =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      add_open_run(c);
      const double x = p[c];
      p[c] = 0.0;
      sum += x;
      visit(c, x);
      i = c + 1;
    }
  }
  add_open_run(n_);
  return sum;
}

void PpmPredictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.assign(n_, 0.0);
  // Every term is >= 0, so a floor of 0 visits every open entry.
  const double sum =
      blend_pass(p, 0.0, [&p](std::size_t i, double x) { p[i] = x; });
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
  // The blend claims straight into P, which is zero everywhere now, and
  // the pass leaves it so.
  const double floor = candidate_floor(min_prob);
  candidates_.clear();
  const double sum =
      blend_pass(P, floor, [this, floor](std::size_t i, double x) {
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
  depth_ = 0;
}

}  // namespace skp
