#include "core/lookahead.hpp"

#include <span>
#include <utility>

#include "util/require.hpp"

namespace skp {

namespace {

// `cur` enters as the step-1 distribution. Each further step forms
// next[j] = sum_k cur[k] * R[k][j], k ascending, where `row(k, add)` calls
// add(j, R[k][j]) for each positive entry of row k.
template <typename RowFn>
void blend_into(std::vector<double> cur, std::size_t horizon, double decay,
                RowFn row, std::vector<double>& out) {
  SKP_REQUIRE(horizon >= 1, "horizon must be >= 1");
  SKP_REQUIRE(decay > 0.0 && decay <= 1.0, "decay in (0, 1]");
  const std::size_t n = cur.size();
  out.assign(n, 0.0);
  std::vector<double> next;
  double weight = 1.0;
  double weight_sum = 0.0;
  for (std::size_t d = 1; d <= horizon; ++d) {
    for (std::size_t j = 0; j < n; ++j) out[j] += weight * cur[j];
    weight_sum += weight;
    if (d < horizon) {
      next.assign(n, 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        if (cur[k] <= 0.0) continue;
        row(k, [&](std::size_t j, double p) { next[j] += cur[k] * p; });
      }
      cur.swap(next);
      weight *= decay;
    }
  }
  for (double& x : out) x /= weight_sum;
}

}  // namespace

void horizon_probabilities_into(const MarkovChain& chain, std::size_t state,
                                std::size_t horizon, double decay,
                                std::vector<double>& out) {
  std::vector<double> first(chain.n_states(), 0.0);
  chain.scatter_row(state, first);
  // A chain row's positive entries are its successors, ascending.
  blend_into(
      std::move(first), horizon, decay,
      [&](std::size_t k, auto add) {
        const std::span<const ItemId> succ = chain.successors(k);
        const std::span<const double> prob = chain.probabilities(k);
        for (std::size_t i = 0; i < succ.size(); ++i) {
          add(static_cast<std::size_t>(succ[i]), prob[i]);
        }
      },
      out);
}

std::vector<double> horizon_probabilities(const MarkovChain& chain,
                                          std::size_t state,
                                          std::size_t horizon,
                                          double decay) {
  std::vector<double> out;
  horizon_probabilities_into(chain, state, horizon, decay, out);
  return out;
}

std::vector<double> horizon_probabilities(
    const std::vector<std::vector<double>>& matrix,
    const std::vector<double>& first_row, std::size_t horizon,
    double decay) {
  const std::size_t n = first_row.size();
  SKP_REQUIRE(matrix.size() == n, "matrix/row size mismatch");
  for (const auto& r : matrix) {
    SKP_REQUIRE(r.size() == n, "matrix must be square");
  }
  std::vector<double> out;
  blend_into(
      first_row, horizon, decay,
      [&](std::size_t k, auto add) {
        for (std::size_t j = 0; j < n; ++j) {
          if (matrix[k][j] > 0.0) add(j, matrix[k][j]);
        }
      },
      out);
  return out;
}

}  // namespace skp
