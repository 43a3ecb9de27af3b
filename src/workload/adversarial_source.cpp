#include "workload/adversarial_source.hpp"

#include "util/require.hpp"

namespace skp {

MarkovChain make_adversarial_chain(const AdversarialSourceConfig& config,
                                   Rng& rng) {
  const std::size_t n = config.n_items;
  const std::size_t h = config.hot_set;
  SKP_REQUIRE(h >= 2, "AdversarialSource needs hot_set >= 2");
  SKP_REQUIRE(2 * h <= n,
              "AdversarialSource needs n_items >= 2 * hot_set, got n_items="
                  << n << " hot_set=" << h);
  SKP_REQUIRE(config.escape_prob > 0.0 && config.escape_prob < 1.0,
              "escape_prob must be in (0, 1)");
  SKP_REQUIRE(config.v_lo >= 1.0 && config.v_lo <= config.v_hi,
              "viewing time range");
  SKP_REQUIRE(config.r_lo > 0.0 && config.r_lo <= config.r_hi,
              "retrieval time range");

  std::vector<double> v(n), r(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.uniform_time(config.v_lo, config.v_hi, config.integer_times);
    r[i] = rng.uniform_time(config.r_lo, config.r_hi, config.integer_times);
  }

  const double esc = config.escape_prob;
  const double stay = (1.0 - esc) / static_cast<double>(h - 1);
  const double defect = esc / static_cast<double>(h);

  std::vector<std::vector<ItemId>> succ(n);
  std::vector<std::vector<double>> prob(n);
  // Clique members: uniform over the OTHER members of the own clique,
  // escape mass spread uniformly over the rival clique. Successor lists
  // stay in ascending id order because clique A's ids all precede
  // clique B's.
  for (std::size_t s = 0; s < 2 * h; ++s) {
    const bool in_a = s < h;
    const std::size_t own_lo = in_a ? 0 : h;
    const std::size_t rival_lo = in_a ? h : 0;
    auto add_own = [&] {
      for (std::size_t i = own_lo; i < own_lo + h; ++i) {
        if (i == s) continue;
        succ[s].push_back(static_cast<ItemId>(i));
        prob[s].push_back(stay);
      }
    };
    auto add_rival = [&] {
      for (std::size_t i = rival_lo; i < rival_lo + h; ++i) {
        succ[s].push_back(static_cast<ItemId>(i));
        prob[s].push_back(defect);
      }
    };
    if (in_a) {
      add_own();
      add_rival();
    } else {
      add_rival();
      add_own();
    }
  }
  // Cold states: one-shot entry points that drop the walk into clique A.
  for (std::size_t s = 2 * h; s < n; ++s) {
    for (std::size_t i = 0; i < h; ++i) {
      succ[s].push_back(static_cast<ItemId>(i));
      prob[s].push_back(1.0 / static_cast<double>(h));
    }
  }

  return MarkovChain(std::move(v), std::move(r), succ, prob);
}

}  // namespace skp
