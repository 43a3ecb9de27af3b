// The Markov request source with oracle rows: a MarkovChain (see
// workload/markov_chain.hpp for the paper's Figure 7 chain) plus its dense
// next-access rows and a current state.
//
// Only the consumers that plan on oracle rows hold one — the
// prefetch_cache driver, oracle netsim_des sessions and multi_client
// clients, and lookahead blending. The rows cost n x n
// doubles; pipelines that only walk the chain (materialize_workload, so
// every learned-predictor driver) hold the bare MarkovChain instead.
#pragma once

#include <span>
#include <vector>

#include "core/item.hpp"
#include "util/rng.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

class MarkovSource {
 public:
  // Draws the chain from `rng` (MarkovChain's constructor) and builds its
  // dense rows.
  MarkovSource(const MarkovSourceConfig& config, Rng& rng);

  // Adds dense rows to a chain — how the zipf and adversarial chains,
  // and any chain assembled explicitly, drop into every simulator that
  // plans on oracle rows.
  explicit MarkovSource(MarkovChain chain);

  // Redraws the chain's transition structure (MarkovChain::
  // redraw_transitions) and its dense rows, keeping the v/r catalogs and
  // the current state.
  void redraw_transitions(const MarkovSourceConfig& config, Rng& rng);

  std::size_t n_states() const noexcept { return chain_.n_states(); }
  std::size_t current_state() const noexcept { return state_; }

  double viewing_time(std::size_t state) const {
    return chain_.viewing_time(state);
  }
  double retrieval_time(ItemId item) const {
    return chain_.retrieval_time(item);
  }
  std::span<const double> retrieval_times() const noexcept {
    return chain_.retrieval_times();
  }

  // Dense next-access probability row of `state` (length n_states; zeros
  // for non-successors). This is the oracle P the paper's model
  // presupposes.
  std::span<const double> transition_row(std::size_t state) const;

  // Successor list of `state` (items with positive probability).
  std::span<const ItemId> successors(std::size_t state) const {
    return chain_.successors(state);
  }

  // Samples the next state/request and advances. Returns the new state
  // (== requested item id).
  std::size_t step(Rng& rng);

  // Const counterpart: samples a successor of `state` from `rng` without
  // touching this source. Draw-for-draw identical to step() from the
  // same state and stream — this is what lets many sessions walk private
  // trajectories over ONE shared immutable source (each keeps its own
  // state + walk stream; the chain structure is read-only).
  std::size_t sample_from(std::size_t state, Rng& rng) const {
    return chain_.sample_from(state, rng);
  }

  // Heap bytes behind the source: the chain plus n^2 doubles of dense
  // rows, which dominate — the shared-catalog savings the capacity bench
  // measures.
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
  void fill_dense_rows();

  MarkovChain chain_;
  std::vector<double> dense_;  // n x n row-major next-access rows
  std::size_t state_ = 0;
};

}  // namespace skp
