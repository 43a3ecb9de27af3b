#include "workload/markov_chain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/require.hpp"

namespace skp {

namespace {

// The positions a partial Fisher–Yates over a virtual pool has displaced:
// an open-addressed table (load <= 1/2) whose slots are stamped with the
// state that wrote them, so starting the next state clears it for free.
// A shuffle of `degree` steps displaces at most `degree` positions.
class DisplacedPositions {
 public:
  explicit DisplacedPositions(std::size_t max_degree) {
    std::size_t capacity = 16;
    shift_ = 60;
    while (capacity < 2 * max_degree) {
      capacity <<= 1;
      --shift_;
    }
    slots_.resize(capacity);
  }

  void next_state() noexcept { ++stamp_; }

  // The item at `pos`: its displaced value, or `undisturbed` if no swap
  // has touched it in this state.
  ItemId at(std::size_t pos, ItemId undisturbed) const noexcept {
    for (std::size_t i = home(pos);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.stamp != stamp_) return undisturbed;
      if (slot.pos == pos) return slot.item;
    }
  }

  void set(std::size_t pos, ItemId item) noexcept {
    for (std::size_t i = home(pos);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_ || slot.pos == pos) {
        slot = {stamp_, pos, item};
        return;
      }
    }
  }

 private:
  struct Slot {
    std::size_t stamp = 0;
    std::size_t pos = 0;
    ItemId item = 0;
  };

  std::size_t home(std::size_t pos) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(pos) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t stamp_ = 1;
  int shift_ = 60;
};

}  // namespace

MarkovChain::MarkovChain(const MarkovSourceConfig& config, Rng& rng) {
  const std::size_t n = config.n_states;
  SKP_REQUIRE(n >= 2, "MarkovSource needs at least 2 states");
  SKP_REQUIRE(config.v_lo >= 1.0 && config.v_lo <= config.v_hi,
              "viewing time range");
  SKP_REQUIRE(config.r_lo > 0.0 && config.r_lo <= config.r_hi,
              "retrieval time range");

  v_.resize(n);
  r_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    v_[i] = rng.uniform_time(config.v_lo, config.v_hi,
                             config.integer_times);
    r_[i] = rng.uniform_time(config.r_lo, config.r_hi,
                             config.integer_times);
  }
  redraw_transitions(config, rng);
}

MarkovChain::MarkovChain(std::vector<double> v, std::vector<double> r,
                         const std::vector<std::vector<ItemId>>& successors,
                         const std::vector<std::vector<double>>& probabilities)
    : v_(std::move(v)), r_(std::move(r)) {
  const std::size_t n = v_.size();
  SKP_REQUIRE(n >= 2, "MarkovSource needs at least 2 states");
  SKP_REQUIRE(r_.size() == n, "v/r size mismatch");
  SKP_REQUIRE(successors.size() == n && probabilities.size() == n,
              "successor structure size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    SKP_REQUIRE(v_[i] > 0.0, "viewing time of state " << i);
    SKP_REQUIRE(r_[i] > 0.0, "retrieval time of item " << i);
  }
  std::size_t total = 0;
  for (const auto& succ : successors) total += succ.size();
  offset_.reserve(n + 1);
  offset_.push_back(0);
  succ_.reserve(total);
  prob_.reserve(total);
  for (std::size_t s = 0; s < n; ++s) {
    const auto& succ = successors[s];
    const auto& prob = probabilities[s];
    SKP_REQUIRE(!succ.empty(), "state " << s << " has no successors");
    SKP_REQUIRE(succ.size() == prob.size(),
                "successor/probability size mismatch at state " << s);
    double sum = 0.0;
    for (std::size_t k = 0; k < succ.size(); ++k) {
      const ItemId t = succ[k];
      SKP_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < n,
                  "successor out of range at state " << s);
      SKP_REQUIRE(k == 0 || succ[k - 1] < t,
                  "successors of state " << s << " not ascending");
      SKP_REQUIRE(prob[k] > 0.0,
                  "non-positive transition probability at state " << s);
      sum += prob[k];
    }
    SKP_REQUIRE(std::abs(sum - 1.0) <= 1e-9,
                "row of state " << s << " sums to " << sum);
    succ_.insert(succ_.end(), succ.begin(), succ.end());
    prob_.insert(prob_.end(), prob.begin(), prob.end());
    offset_.push_back(succ_.size());
  }
}

void MarkovChain::redraw_transitions(const MarkovSourceConfig& config,
                                     Rng& rng) {
  const std::size_t n = v_.size();
  SKP_REQUIRE(config.n_states == n,
              "redraw_transitions: state count mismatch");
  SKP_REQUIRE(config.out_degree_lo >= 1, "out-degree lower bound");
  SKP_REQUIRE(config.out_degree_lo <= config.out_degree_hi,
              "out-degree bounds inverted");
  // The degree is drawn as a signed 64-bit integer.
  SKP_REQUIRE(config.out_degree_hi <=
                  static_cast<std::size_t>(
                      std::numeric_limits<std::int64_t>::max()),
              "out-degree upper bound " << config.out_degree_hi
                                        << " exceeds "
                                        << std::numeric_limits<
                                               std::int64_t>::max());

  // The pool of possible successors per state excludes the state itself
  // ("before changing to another state"). The lists are reserved for the
  // largest chain the bounds admit, so they never reallocate.
  const std::size_t pool = n - 1;
  const std::size_t max_degree = std::min(config.out_degree_hi, pool);
  offset_.assign(1, 0);
  offset_.reserve(n + 1);
  succ_.clear();
  succ_.reserve(n * max_degree);
  prob_.clear();
  prob_.reserve(n * max_degree);
  DisplacedPositions displaced(max_degree);
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t degree = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(config.out_degree_lo),
        static_cast<std::int64_t>(config.out_degree_hi)));
    degree = std::min(degree, pool);
    // Partial Fisher–Yates over the pool's ascending ids, kept virtual:
    // position p holds id p, shifted past s, until a swap displaces it.
    // Step k moves position j's item into the result and position k's
    // item into j; position k is never read again.
    const auto undisturbed = [&](std::size_t p) {
      return static_cast<ItemId>(p >= s ? p + 1 : p);
    };
    displaced.next_state();
    const std::size_t begin = succ_.size();
    for (std::size_t k = 0; k < degree; ++k) {
      const std::size_t j =
          k + static_cast<std::size_t>(rng.next_below(pool - k));
      succ_.push_back(displaced.at(j, undisturbed(j)));
      if (j != k) displaced.set(j, displaced.at(k, undisturbed(k)));
    }
    std::sort(succ_.begin() + static_cast<std::ptrdiff_t>(begin),
              succ_.end());

    // Dirichlet(1) probabilities over the successors.
    double sum = 0.0;
    for (std::size_t k = 0; k < degree; ++k) {
      const double w = rng.exponential(1.0) + 1e-12;
      prob_.push_back(w);
      sum += w;
    }
    for (std::size_t k = begin; k < prob_.size(); ++k) prob_[k] /= sum;
    offset_.push_back(succ_.size());
  }
}

double MarkovChain::viewing_time(std::size_t state) const {
  SKP_REQUIRE(state < v_.size(), "state " << state << " out of range");
  return v_[state];
}

double MarkovChain::retrieval_time(ItemId item) const {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < r_.size(),
              "item " << item << " out of range");
  return r_[static_cast<std::size_t>(item)];
}

std::span<const ItemId> MarkovChain::successors(std::size_t state) const {
  SKP_REQUIRE(state < v_.size(), "state out of range");
  return std::span<const ItemId>(succ_).subspan(
      offset_[state], offset_[state + 1] - offset_[state]);
}

std::span<const double> MarkovChain::probabilities(std::size_t state) const {
  SKP_REQUIRE(state < v_.size(), "state out of range");
  return std::span<const double>(prob_).subspan(
      offset_[state], offset_[state + 1] - offset_[state]);
}

void MarkovChain::scatter_row(std::size_t state,
                              std::span<double> row) const {
  SKP_REQUIRE(row.size() == v_.size(), "row of " << row.size() << " entries");
  const std::span<const ItemId> succ = successors(state);
  const std::span<const double> prob = probabilities(state);
  for (std::size_t k = 0; k < succ.size(); ++k) {
    row[static_cast<std::size_t>(succ[k])] = prob[k];
  }
}

void MarkovChain::clear_row(std::size_t state, std::span<double> row) const {
  SKP_REQUIRE(row.size() == v_.size(), "row of " << row.size() << " entries");
  for (const ItemId t : successors(state)) {
    row[static_cast<std::size_t>(t)] = 0.0;
  }
}

std::size_t MarkovChain::sample_from(std::size_t state, Rng& rng) const {
  const std::span<const ItemId> targets = successors(state);
  const std::span<const double> probs = probabilities(state);
  SKP_ASSERT(!targets.empty());
  const double u = rng.next_double();
  double cum = 0.0;
  std::size_t pick = targets.size() - 1;  // guard against fp round-off
  for (std::size_t k = 0; k < probs.size(); ++k) {
    cum += probs[k];
    if (u < cum) {
      pick = k;
      break;
    }
  }
  return static_cast<std::size_t>(targets[pick]);
}

std::size_t MarkovChain::footprint_bytes() const noexcept {
  return (v_.capacity() + r_.capacity() + prob_.capacity()) *
             sizeof(double) +
         offset_.capacity() * sizeof(std::size_t) +
         succ_.capacity() * sizeof(ItemId);
}

}  // namespace skp
