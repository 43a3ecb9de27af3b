#include "workload/zipf_source.hpp"

#include <numeric>

#include "util/require.hpp"
#include "workload/prob_gen.hpp"

namespace skp {

MarkovChain make_zipf_chain(const ZipfSourceConfig& config, Rng& rng) {
  const std::size_t n = config.n_items;
  SKP_REQUIRE(n >= 2, "ZipfSource needs at least 2 items");
  SKP_REQUIRE(config.exponent > 0.0, "Zipf exponent must be positive");
  SKP_REQUIRE(config.v_lo >= 1.0 && config.v_lo <= config.v_hi,
              "viewing time range");
  SKP_REQUIRE(config.r_lo > 0.0 && config.r_lo <= config.r_hi,
              "retrieval time range");

  std::vector<double> v(n), r(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.uniform_time(config.v_lo, config.v_hi,
                            config.integer_times);
    r[i] = rng.uniform_time(config.r_lo, config.r_hi,
                            config.integer_times);
  }

  const std::vector<double> row =
      zipf_probabilities(n, config.exponent, rng, config.shuffle);

  // Rank-1 chain: every state shares the same row over all items
  // (every probability is strictly positive, so the successor list is the
  // full catalog in ascending id order).
  std::vector<ItemId> all(n);
  std::iota(all.begin(), all.end(), ItemId{0});
  std::vector<std::vector<ItemId>> succ(n, all);
  std::vector<std::vector<double>> prob(n, row);
  return MarkovChain(std::move(v), std::move(r), succ, prob);
}

}  // namespace skp
