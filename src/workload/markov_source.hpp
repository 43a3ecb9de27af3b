// The Markov request source of the paper's Figure 7 experiment.
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
// time v_i; each item carries its retrieval time r_i. Transition rows are
// sparse (out-degree uniform in [out_lo, out_hi]) with Dirichlet(1)
// probabilities over the chosen successors.
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
  bool allow_self_loop = false;      // a request for the item just viewed
                                     // would always hit; default matches
                                     // "changing to another state"
};

class MarkovSource {
 public:
  // Builds the random chain from `rng`; the chain itself is then fixed and
  // stepping uses a separate stream so structure and trajectory are
  // independently reproducible.
  MarkovSource(const MarkovSourceConfig& config, Rng& rng);

  // Explicit-chain constructor: per-state viewing times, per-item
  // retrieval times, and per-state successor lists (ascending ids) with
  // aligned probabilities (each row sums to 1). This is how synthetic
  // sources with a prescribed structure — e.g. workload/zipf_source's
  // rank-1 chain — drop into every simulator that consumes a
  // MarkovSource.
  MarkovSource(std::vector<double> v, std::vector<double> r,
               std::vector<std::vector<ItemId>> successors,
               std::vector<std::vector<double>> probabilities);

  // Redraws the transition structure (successor sets + probabilities)
  // from `rng`, keeping the v/r catalogs and the current state. This is
  // the phase-shift primitive behind drifting workloads: at a
  // changepoint the access pattern changes while the items themselves do
  // not. `config` supplies the out-degree bounds and must describe the
  // same state count.
  void redraw_transitions(const MarkovSourceConfig& config, Rng& rng);

  std::size_t n_states() const noexcept { return v_.size(); }
  std::size_t current_state() const noexcept { return state_; }

  double viewing_time(std::size_t state) const;
  double retrieval_time(ItemId item) const;
  std::span<const double> retrieval_times() const noexcept { return r_; }

  // Dense next-access probability row of `state` (length n_states; zeros
  // for non-successors). This is the oracle P the paper's model
  // presupposes.
  std::span<const double> transition_row(std::size_t state) const;

  // Successor list of `state` (items with positive probability).
  std::span<const ItemId> successors(std::size_t state) const;

  // Samples the next state/request and advances. Returns the new state
  // (== requested item id).
  std::size_t step(Rng& rng);

  // Const counterpart: samples a successor of `state` from `rng` without
  // touching this source. Draw-for-draw identical to step() from the
  // same state and stream — this is what lets many sessions walk private
  // trajectories over ONE shared immutable source (each keeps its own
  // state + walk stream; the chain structure is read-only).
  std::size_t sample_from(std::size_t state, Rng& rng) const;

  // Heap bytes behind the chain (dense rows dominate at n^2 doubles) —
  // the shared-catalog savings the capacity bench measures.
  std::size_t footprint_bytes() const noexcept;

  // Re-seats the chain at `state` without sampling (tests, replays).
  void teleport(std::size_t state);

  // Builds the Instance (P = row of `state`, r = catalog retrieval times,
  // v = viewing_time(state)) the prefetch engine consumes in that state.
  Instance instance_at(std::size_t state) const;

  // Borrowed-view counterpart of instance_at: spans over the source-owned
  // dense row and retrieval-time catalog, copying nothing. This is what
  // the sim hot loops call once per request; the view is invalidated only
  // by destroying the source.
  InstanceView view_at(std::size_t state) const;

 private:
  std::vector<double> v_;                       // per-state viewing time
  std::vector<double> r_;                       // per-item retrieval time
  std::vector<std::vector<ItemId>> succ_;       // successor ids
  std::vector<std::vector<double>> succ_prob_;  // aligned probabilities
  std::vector<std::vector<double>> dense_row_;  // cached dense rows
  std::size_t state_ = 0;
};

}  // namespace skp
