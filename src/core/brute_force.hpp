// Exhaustive reference solvers. Exponential; intended only for tests and
// for the bound-quality / ablation benches on small instances.
//
// For a fixed *set* S of prefetched items, g*(S ordered with last element z)
// depends only on S and z (Eq. 3), so enumerating subsets x feasible last
// elements covers every list the Eq.-(1) construction admits — a much
// smaller space than all permutations, but provably equivalent (the test
// suite cross-checks against full permutation enumeration on tiny n).
#pragma once

#include <span>

#include "core/skp_solver.hpp"

namespace skp {

struct BruteForceResult {
  PrefetchList F;   // best list found (ordered; last element is z)
  double g = 0.0;   // g*(F) per Eq. (3); 0 when prefetching nothing is best
  std::uint64_t evaluated = 0;  // candidate (subset, z) pairs scored
};

// Exhaustive SKP over subsets x last-element choices. Throws if more than
// `max_items` candidates (guard against accidental exponential blowups).
BruteForceResult brute_force_skp(const Instance& inst,
                                 std::span<const ItemId> candidates,
                                 std::size_t max_items = 22);
BruteForceResult brute_force_skp(const Instance& inst,
                                 std::size_t max_items = 22);

// Exhaustive SKP restricted to the canonical-order subspace the paper's
// Figure-3 algorithm searches: each subset is fetched in Eq.-(5) order, so
// its last element is its minimal-probability member and validity demands
// the other members fit strictly within v. This is the exact reference for
// solve_skp. (DESIGN.md D8: Theorem 1's swap argument silently assumes the
// swapped list stays Eq.-(1)-valid, which can fail; the full-space optimum
// of brute_force_skp can therefore exceed this one.)
BruteForceResult brute_force_skp_canonical(const Instance& inst,
                                           std::span<const ItemId> candidates,
                                           std::size_t max_items = 22);
BruteForceResult brute_force_skp_canonical(const Instance& inst,
                                           std::size_t max_items = 22);

// Exhaustive SKP over *all permutations* of all subsets — the raw search
// space described in Section 4.1. Only for tiny n (<= 8); used to verify
// that restricting to (subset, z) pairs loses nothing.
BruteForceResult brute_force_skp_permutations(const Instance& inst,
                                              std::size_t max_items = 8);

// Exhaustive 0/1 knapsack (profit P*r, weight r, capacity v).
BruteForceResult brute_force_kp(const Instance& inst,
                                std::span<const ItemId> candidates,
                                std::size_t max_items = 22);

}  // namespace skp
