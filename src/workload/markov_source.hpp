// The Markov request source: a MarkovChain (see workload/markov_chain.hpp
// for the paper's Figure 7 chain), a current state, and one n-length
// oracle row that view_at scatters the asked state's successors into.
//
// The prefetch_cache driver and the examples plan on it; the DES drivers
// hold the bare chain and scatter into their own planning row. Holding a
// source costs the chain's O(n * degree) plus n doubles, and each view_at
// of a new state costs O(degree): it clears the row under the previous
// state's successor list and scatters the new one (MarkovChain::
// scatter_row), so the row is the dense next-access row bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/item.hpp"
#include "util/rng.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

class MarkovSource {
 public:
  // Draws the chain from `rng` (MarkovChain's constructor).
  MarkovSource(const MarkovSourceConfig& config, Rng& rng);

  // Walks a given chain — how the zipf and adversarial chains, and any
  // chain assembled explicitly, drop into a simulator that plans on
  // oracle rows.
  explicit MarkovSource(MarkovChain chain);

  // Redraws the chain's transition structure (MarkovChain::
  // redraw_transitions), keeping the v/r catalogs and the current state.
  // The row is cleared under the old successor list first and holds no
  // state afterwards, so the next view_at scatters afresh.
  void redraw_transitions(const MarkovSourceConfig& config, Rng& rng);

  const MarkovChain& chain() const noexcept { return chain_; }
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

  // Successor list of `state` (items with positive probability).
  std::span<const ItemId> successors(std::size_t state) const {
    return chain_.successors(state);
  }

  // Samples the next state/request and advances. Returns the new state
  // (== requested item id).
  std::size_t step(Rng& rng);

  // Re-seats the chain at `state` without sampling (tests, replays).
  void teleport(std::size_t state);

  // Builds an owning Instance (P = dense row of `state`, r = catalog
  // retrieval times, v = viewing_time(state)) for callers that keep it.
  Instance instance_at(std::size_t state) const;

  // Borrowed view of the same instance: spans over the source's one row
  // and its retrieval-time catalog, copying nothing. The view is valid
  // until the next view_at or redraw_transitions; a view_at of the state
  // the row already holds scatters nothing. This is what the sim hot
  // loops call once per request (a demand victim's row is the next
  // request's planning row).
  InstanceView view_at(std::size_t state);

 private:
  static constexpr std::size_t kNoState = static_cast<std::size_t>(-1);

  MarkovChain chain_;
  std::size_t state_ = 0;
  std::vector<double> row_;          // the row of row_state_, else +0.0
  std::size_t row_state_ = kNoState;
};

}  // namespace skp
