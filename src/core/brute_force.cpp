#include "core/brute_force.hpp"

#include <algorithm>
#include <numeric>

#include "core/access_model.hpp"

namespace skp {

namespace {

std::vector<ItemId> all_items(const Instance& inst) {
  std::vector<ItemId> ids(inst.n());
  std::iota(ids.begin(), ids.end(), ItemId{0});
  return ids;
}

// g* of the ordered list `K ++ <z>` given precomputed sums, per Eq. (3).
double g_of(double profit_sum, double prob_K, double stretch) {
  return profit_sum - (1.0 - prob_K) * stretch;
}

}  // namespace

BruteForceResult brute_force_skp(const Instance& inst,
                                 std::span<const ItemId> candidates,
                                 std::size_t max_items) {
  inst.validate();
  const std::size_t m = candidates.size();
  SKP_REQUIRE(m <= max_items,
              "brute_force_skp over " << m << " items (cap " << max_items
                                      << ")");
  BruteForceResult best;  // g = 0, empty list: prefetch nothing
  const std::uint64_t limit = 1ULL << m;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    // Set totals.
    double r_sum = 0.0, p_sum = 0.0, profit_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1ULL << i)) {
        const ItemId id = candidates[i];
        r_sum += inst.r[Instance::idx(id)];
        p_sum += inst.P[Instance::idx(id)];
        profit_sum += inst.profit(id);
      }
    }
    // Try every member as the last element z; Eq. (1) requires the rest to
    // fit strictly within v.
    for (std::size_t zi = 0; zi < m; ++zi) {
      if (!(mask & (1ULL << zi))) continue;
      const ItemId z = candidates[zi];
      const double r_K = r_sum - inst.r[Instance::idx(z)];
      if (!(r_K < inst.v)) continue;  // violates the construction
      ++best.evaluated;
      const double stretch = std::max(0.0, r_sum - inst.v);
      const double prob_K = p_sum - inst.P[Instance::idx(z)];
      const double g = g_of(profit_sum, prob_K, stretch);
      if (g > best.g) {
        best.g = g;
        best.F.clear();
        for (std::size_t i = 0; i < m; ++i) {
          if ((mask & (1ULL << i)) && i != zi)
            best.F.push_back(candidates[i]);
        }
        best.F.push_back(z);
      }
      if (stretch == 0.0) break;  // without stretch, z is irrelevant
    }
  }
  return best;
}

BruteForceResult brute_force_skp(const Instance& inst,
                                 std::size_t max_items) {
  const auto ids = all_items(inst);
  return brute_force_skp(inst, ids, max_items);
}

BruteForceResult brute_force_skp_canonical(
    const Instance& inst, std::span<const ItemId> candidates,
    std::size_t max_items) {
  inst.validate();
  const std::size_t m = candidates.size();
  SKP_REQUIRE(m <= max_items, "brute_force_skp_canonical over " << m
                                                                << " items");
  const auto order = canonical_order(inst, candidates);
  BruteForceResult best;
  const std::uint64_t limit = 1ULL << m;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    double r_sum = 0.0, p_sum = 0.0, profit_sum = 0.0;
    // order[] is canonical, so the last set bit is the list's z.
    double r_z = 0.0, p_z = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!(mask & (1ULL << i))) continue;
      const ItemId id = order[i];
      r_sum += inst.r[Instance::idx(id)];
      p_sum += inst.P[Instance::idx(id)];
      profit_sum += inst.profit(id);
      r_z = inst.r[Instance::idx(id)];
      p_z = inst.P[Instance::idx(id)];
    }
    if (!(r_sum - r_z < inst.v)) continue;  // Eq. (1) in canonical order
    ++best.evaluated;
    const double stretch = std::max(0.0, r_sum - inst.v);
    const double g = g_of(profit_sum, p_sum - p_z, stretch);
    if (g > best.g) {
      best.g = g;
      best.F.clear();
      for (std::size_t i = 0; i < m; ++i) {
        if (mask & (1ULL << i)) best.F.push_back(order[i]);
      }
    }
  }
  return best;
}

BruteForceResult brute_force_skp_canonical(const Instance& inst,
                                           std::size_t max_items) {
  const auto ids = all_items(inst);
  return brute_force_skp_canonical(inst, ids, max_items);
}

BruteForceResult brute_force_skp_permutations(const Instance& inst,
                                              std::size_t max_items) {
  inst.validate();
  const std::size_t m = inst.n();
  SKP_REQUIRE(m <= max_items, "permutation brute force over " << m
                                                              << " items");
  BruteForceResult best;
  const auto ids = all_items(inst);
  const std::uint64_t limit = 1ULL << m;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    std::vector<ItemId> subset;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1ULL << i)) subset.push_back(ids[i]);
    }
    std::sort(subset.begin(), subset.end());
    do {
      if (!is_valid_prefetch_list(inst, subset)) continue;
      ++best.evaluated;
      const double g = access_improvement(inst, subset);
      if (g > best.g) {
        best.g = g;
        best.F = subset;
      }
    } while (std::next_permutation(subset.begin(), subset.end()));
  }
  return best;
}

BruteForceResult brute_force_kp(const Instance& inst,
                                std::span<const ItemId> candidates,
                                std::size_t max_items) {
  inst.validate();
  const std::size_t m = candidates.size();
  SKP_REQUIRE(m <= max_items, "brute_force_kp over " << m << " items");
  BruteForceResult best;
  const std::uint64_t limit = 1ULL << m;
  for (std::uint64_t mask = 1; mask < limit; ++mask) {
    double r_sum = 0.0, profit_sum = 0.0;
    std::vector<ItemId> subset;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask & (1ULL << i)) {
        const ItemId id = candidates[i];
        r_sum += inst.r[Instance::idx(id)];
        profit_sum += inst.profit(id);
        subset.push_back(id);
      }
    }
    if (r_sum > inst.v) continue;
    ++best.evaluated;
    if (profit_sum > best.g) {
      best.g = profit_sum;
      best.F = std::move(subset);
    }
  }
  return best;
}

}  // namespace skp
