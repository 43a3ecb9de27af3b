// The sparse Markov chain of the paper's Figure 7 experiment.
//
// From the figure caption: "The requests are generated using a 100-state
// Markov source. When going to state i, the Markov source generates a
// request for item i and, after the request is served, it waits for the
// duration of v_i, where 1 <= v_i <= 100, before changing to another
// state. The state transition matrix is constructed such that there are 10
// to 20 possible transitions from any state. Retrieval times for items are
// between 1 and 30."
//
// State i <-> item i (one item per state). Each state carries its viewing
// time v_i; each item carries its retrieval time r_i. Transitions are
// stored sparsely: per state an ascending successor list (out-degree
// uniform in [out_lo, out_hi]) with aligned Dirichlet(1) probabilities.
// Drawing and holding a chain costs O(n * degree). Planning on oracle
// rows scatters one state's successors into a reused n-length row
// (scatter_row/clear_row), so no path holds n x n dense rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/item.hpp"
#include "util/rng.hpp"

namespace skp {

struct MarkovSourceConfig {
  std::size_t n_states = 100;
  std::size_t out_degree_lo = 10;
  std::size_t out_degree_hi = 20;
  double v_lo = 1.0, v_hi = 100.0;   // per-state viewing times
  double r_lo = 1.0, r_hi = 30.0;    // per-item retrieval times
  bool integer_times = true;         // draw v, r as integers (paper-style)
};

class MarkovChain {
 public:
  // Draws the catalogs and the transition structure from `rng`; the chain
  // is then fixed, and walks draw from a separate stream so structure and
  // trajectory are independently reproducible.
  MarkovChain(const MarkovSourceConfig& config, Rng& rng);

  // Explicit chain: per-state viewing times, per-item retrieval times, and
  // per-state successor lists (ascending ids) with aligned probabilities
  // (each row sums to 1). This is how synthetic chains with a prescribed
  // structure — workload/zipf_source's rank-1 chain, the adversarial
  // cliques — are assembled.
  MarkovChain(std::vector<double> v, std::vector<double> r,
              const std::vector<std::vector<ItemId>>& successors,
              const std::vector<std::vector<double>>& probabilities);

  // Redraws the transition structure (successor sets + probabilities)
  // from `rng`, keeping the v/r catalogs. This is the phase-shift
  // primitive behind drifting workloads: at a changepoint the access
  // pattern changes while the items themselves do not. `config` supplies
  // the out-degree bounds and must describe the same state count.
  void redraw_transitions(const MarkovSourceConfig& config, Rng& rng);

  std::size_t n_states() const noexcept { return v_.size(); }

  double viewing_time(std::size_t state) const;
  double retrieval_time(ItemId item) const;
  std::span<const double> retrieval_times() const noexcept { return r_; }

  // Successor list of `state` (items with positive probability, ascending)
  // and the aligned transition probabilities.
  std::span<const ItemId> successors(std::size_t state) const;
  std::span<const double> probabilities(std::size_t state) const;

  // The one place a dense oracle row is formed. scatter_row writes each
  // successor's probability of `state` into row[successor]; clear_row
  // writes +0.0 back over the same entries. Nothing else is touched, so
  // a row that is +0.0 everywhere before a scatter then holds the dense
  // next-access row bit for bit, and clearing it under the same
  // successor list (before the list is redrawn) restores it. `row` must
  // have n_states() entries. O(degree).
  void scatter_row(std::size_t state, std::span<double> row) const;
  void clear_row(std::size_t state, std::span<double> row) const;

  // Samples a successor of `state` from `rng`. The chain is read-only, so
  // many walkers (sessions, clients) can share one chain, each keeping
  // its own state and walk stream.
  std::size_t sample_from(std::size_t state, Rng& rng) const;

  // Heap bytes behind the chain: O(n * degree).
  std::size_t footprint_bytes() const noexcept;

 private:
  std::vector<double> v_;             // per-state viewing time
  std::vector<double> r_;             // per-item retrieval time
  // State s's successors and their probabilities occupy
  // [offset_[s], offset_[s + 1]) of succ_ and prob_.
  std::vector<std::size_t> offset_;
  std::vector<ItemId> succ_;
  std::vector<double> prob_;
};

}  // namespace skp
