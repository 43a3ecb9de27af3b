// Classic 0/1 knapsack machinery for the KP-prefetch baseline.
//
// In the knapsack view of Section 4 of the paper, item i has profit
// P_i * r_i, weight r_i, and the knapsack capacity is the viewing time v.
// Unlike the SKP, the KP never stretches: sum of selected weights <= v.
//
// Solvers provided:
//   * solve_kp_bb   — Horowitz–Sahni branch-and-bound with Dantzig bound;
//                     works with real-valued weights (the general case).
//   * solve_kp_dp   — integer-weight dynamic program; used for cross checks
//                     and as an independent oracle in property tests.
//   * greedy_kp     — Dantzig greedy (profit-density order, skip misfits).
//   * dantzig_bound — LP-relaxation upper bound (Dantzig's theorem), the
//                     bound that both KP and SKP searches prune with.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/item.hpp"

namespace skp {

// The effort bound of both exact searches (DESIGN.md D9): the KP
// branch-and-bound stops after this many DFS nodes, the SKP search of
// Figure 3 after this many forward steps, and each returns its
// incumbent. Neither search is bounded in the paper; on tie-heavy rows a
// one-ulp rounding keeps Eq. (7)'s prune from firing and one solve can
// run for hundreds of millions of steps. The budget is ~7x the largest
// solve of any pinned workload, so none of them reaches it.
inline constexpr std::uint64_t kSolveNodeBudget = 1'000'000;

struct KpSolution {
  // Selected items in canonical order.
  std::vector<ItemId> items;
  // Total profit sum(P_i r_i) of the selection.
  double value = 0.0;
  // Total weight sum(r_i) of the selection.
  double weight = 0.0;
  // Search statistics (branch-and-bound only; zero for DP/greedy).
  std::uint64_t nodes = 0;
  std::uint64_t pruned = 0;
  // The branch-and-bound reached kSolveNodeBudget nodes and `items` is
  // its incumbent.
  bool node_limit_hit = false;

  // Resets to the empty solution, keeping `items`' capacity (hot-path
  // reuse).
  void clear();
};

// Reusable buffers for solve_kp_bb_into: one per sim loop / thread,
// allocated once and grown on demand.
struct KpWorkspace {
  std::vector<ItemId> order;
  std::vector<CanonKey> order_keys;
  std::vector<char> chosen;
  std::vector<char> best_chosen;
};

// Exact B&B over the given candidates (defaults to the whole catalog when
// `candidates` is empty and `use_all` is true via the convenience overload).
// Every form stops at kSolveNodeBudget nodes and returns its incumbent, at
// least the take-first DFS's first leaf, the greedy fill.
KpSolution solve_kp_bb(InstanceView inst, std::span<const ItemId> candidates);
KpSolution solve_kp_bb(InstanceView inst);

// Allocation-free B&B: working memory comes from `ws`, the result is
// written into `sol` (cleared first, capacity reused). The caller must
// have validated `inst`. Bit-identical to solve_kp_bb.
void solve_kp_bb_into(InstanceView inst, std::span<const ItemId> candidates,
                      KpWorkspace& ws, KpSolution& sol);

// Presorted B&B: `order` must already be the canonical order of the
// candidate set (skips the per-solve sort). Bit-identical to
// solve_kp_bb_into over the same candidate set.
void solve_kp_bb_sorted_into(InstanceView inst,
                             std::span<const ItemId> order, KpWorkspace& ws,
                             KpSolution& sol);

// Exact DP. Requires every r_i (over candidates) and v to be integral;
// throws std::invalid_argument otherwise. O(n * floor(v)) time/space.
KpSolution solve_kp_dp(InstanceView inst,
                       std::span<const ItemId> candidates);
KpSolution solve_kp_dp(InstanceView inst);

// Dantzig greedy: scan in profit-density (== probability) order, take every
// item that still fits. Not exact; used as a fast baseline.
KpSolution greedy_kp(InstanceView inst, std::span<const ItemId> candidates);

// Dantzig LP-relaxation bound for the subproblem consisting of
// `order[from..]` with residual capacity `capacity`: fill whole items in
// order until one does not fit, then add its fractional profit (Eq. 7 of
// the paper with j = from). `order` must be canonically sorted.
double dantzig_bound(InstanceView inst, std::span<const ItemId> order,
                     std::size_t from, double capacity);

}  // namespace skp
