#include "workload/markov_source.hpp"

#include <utility>

#include "util/require.hpp"

namespace skp {

MarkovSource::MarkovSource(const MarkovSourceConfig& config, Rng& rng)
    : MarkovSource(MarkovChain(config, rng)) {}

MarkovSource::MarkovSource(MarkovChain chain)
    : chain_(std::move(chain)), row_(chain_.n_states(), 0.0) {}

void MarkovSource::redraw_transitions(const MarkovSourceConfig& config,
                                      Rng& rng) {
  if (row_state_ != kNoState) chain_.clear_row(row_state_, row_);
  row_state_ = kNoState;
  chain_.redraw_transitions(config, rng);
}

std::size_t MarkovSource::step(Rng& rng) {
  state_ = chain_.sample_from(state_, rng);
  return state_;
}

void MarkovSource::teleport(std::size_t state) {
  SKP_REQUIRE(state < n_states(), "state out of range");
  state_ = state;
}

Instance MarkovSource::instance_at(std::size_t state) const {
  Instance inst;
  inst.P.assign(n_states(), 0.0);
  chain_.scatter_row(state, inst.P);
  inst.r.assign(retrieval_times().begin(), retrieval_times().end());
  inst.v = viewing_time(state);
  return inst;
}

InstanceView MarkovSource::view_at(std::size_t state) {
  if (state != row_state_) {
    SKP_REQUIRE(state < n_states(), "state out of range");
    if (row_state_ != kNoState) chain_.clear_row(row_state_, row_);
    chain_.scatter_row(state, row_);
    row_state_ = state;
  }
  return InstanceView(row_, retrieval_times(), viewing_time(state));
}

}  // namespace skp
