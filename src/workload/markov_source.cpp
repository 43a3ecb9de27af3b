#include "workload/markov_source.hpp"

#include <utility>

#include "util/require.hpp"

namespace skp {

MarkovSource::MarkovSource(const MarkovSourceConfig& config, Rng& rng)
    : MarkovSource(MarkovChain(config, rng)) {}

MarkovSource::MarkovSource(MarkovChain chain) : chain_(std::move(chain)) {
  fill_dense_rows();
}

void MarkovSource::redraw_transitions(const MarkovSourceConfig& config,
                                      Rng& rng) {
  chain_.redraw_transitions(config, rng);
  fill_dense_rows();
}

void MarkovSource::fill_dense_rows() {
  const std::size_t n = chain_.n_states();
  dense_.assign(n * n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::span<const ItemId> succ = chain_.successors(s);
    const std::span<const double> prob = chain_.probabilities(s);
    double* row = dense_.data() + s * n;
    for (std::size_t k = 0; k < succ.size(); ++k) {
      row[static_cast<std::size_t>(succ[k])] = prob[k];
    }
  }
}

std::span<const double> MarkovSource::transition_row(
    std::size_t state) const {
  const std::size_t n = n_states();
  SKP_REQUIRE(state < n, "state out of range");
  return std::span<const double>(dense_).subspan(state * n, n);
}

std::size_t MarkovSource::step(Rng& rng) {
  state_ = sample_from(state_, rng);
  return state_;
}

std::size_t MarkovSource::footprint_bytes() const noexcept {
  return chain_.footprint_bytes() + dense_.capacity() * sizeof(double);
}

void MarkovSource::teleport(std::size_t state) {
  SKP_REQUIRE(state < n_states(), "state out of range");
  state_ = state;
}

Instance MarkovSource::instance_at(std::size_t state) const {
  const std::span<const double> row = transition_row(state);
  Instance inst;
  inst.P.assign(row.begin(), row.end());
  inst.r.assign(retrieval_times().begin(), retrieval_times().end());
  inst.v = viewing_time(state);
  return inst;
}

InstanceView MarkovSource::view_at(std::size_t state) const {
  return InstanceView(transition_row(state), retrieval_times(),
                      viewing_time(state));
}

}  // namespace skp
