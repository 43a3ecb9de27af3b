// Exact solver for the Stretch Knapsack Problem (Section 4 of the paper).
//
// The SKP asks for the ordered prefetch list F maximizing the access
// improvement g*(F) of Eq. (3). Unlike the 0/1 knapsack, the capacity
// (viewing time v) may be exceeded by the *last* inserted item at a cost of
// (penalty mass) * st(F). Theorem 1 restricts the search to lists sorted in
// the canonical order of Eq. (5); Theorem 2 supplies the Dantzig-style
// upper bound of Eq. (7); Theorem 3 gives the incremental delta used during
// the Horowitz–Sahni style depth-first search of the paper's Figure 3.
//
// Delta accounting (DESIGN.md, D1): the paper's Figure 3 computes the
// stretch penalty with the *tail* probability sum_{i=j..n} P_i, which
// silently drops items excluded earlier in the search; Eq. (3)/Theorem 3
// require the complement 1 - sum_{i in K} P_i. Both rules are
// implemented:
//   * DeltaRule::ExactComplement — consistent with Eq. (3); property tests
//     show it matches exhaustive search.
//   * DeltaRule::PaperTail — faithful to the Figure-3 listing; can
//     overestimate g and occasionally return a suboptimal list (the
//     ablation bench quantifies how often).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/item.hpp"
#include "core/kp_solver.hpp"

namespace skp {

enum class DeltaRule {
  // penalty = 1 - sum_{i in K} P_i: the whole catalog's mass, also under
  // cache-aware planning, because the stretch delays every outcome
  // outside K (Section 5).
  ExactComplement,
  PaperTail,  // penalty = sum_{i=j..n} P_i   (Figure 3, verbatim)
};

struct SkpOptions {
  DeltaRule delta_rule = DeltaRule::ExactComplement;
};

struct SkpSolution {
  // Optimal prefetch list in canonical order; last element is z.
  PrefetchList F;
  // g*(F) under the solver's accounting rule. For ExactComplement this
  // equals access_improvement(inst, F).
  double g = 0.0;
  // st(F) of the returned list.
  double stretch = 0.0;
  // Search statistics.
  std::uint64_t forward_steps = 0;   // item insertions attempted
  std::uint64_t backtracks = 0;      // step-5 moves
  std::uint64_t bound_prunes = 0;    // subtrees cut by Eq. (7)
  // The search reached kSolveNodeBudget forward steps and F is its
  // incumbent. The budget is checked between forward passes, so the
  // count may end fewer than |candidates| steps past it.
  bool node_limit_hit = false;

  // Resets to the empty solution, keeping `F`'s capacity (hot-path reuse).
  void clear();
};

// One backtracking move of the Figure-3 search: storing delta (instead of
// recomputing it, which the paper does) reverses g-hat without
// floating-point drift.
struct SkpMove {
  std::size_t index;
  double delta;
  double r;
  double P;
};

// Reusable buffers for solve_skp_into: one per sim loop / thread,
// allocated once and grown on demand.
struct SkpWorkspace {
  std::vector<ItemId> order;
  std::vector<CanonKey> order_keys;
  std::vector<double> suffix_prob;
  std::vector<char> selected;
  std::vector<char> best_selected;
  std::vector<SkpMove> stack;
};

// Solves the SKP over `candidates` (item ids into `inst`). Items with
// P_i == 0 can never enter an optimal list and may be pre-filtered by the
// caller; the solver handles them correctly either way. Every form stops
// at kSolveNodeBudget forward steps and returns its incumbent, at least
// Figure 3's first leaf, the greedy fill (DESIGN.md D9).
SkpSolution solve_skp(InstanceView inst, std::span<const ItemId> candidates,
                      const SkpOptions& opts = {});

// Convenience: solve over the full catalog.
SkpSolution solve_skp(InstanceView inst, const SkpOptions& opts = {});

// Allocation-free solve: working memory comes from `ws`, the result is
// written into `sol` (cleared first, capacity reused). The caller must
// have validated `inst`. Bit-identical to solve_skp.
void solve_skp_into(InstanceView inst, std::span<const ItemId> candidates,
                    const SkpOptions& opts, SkpWorkspace& ws,
                    SkpSolution& sol);

// Figure-3 tail sums over `order`: out[j] = sum of P over
// order[j..m-1] with the P_{m+1} = 0 sentinel out[m] = 0 (m =
// order.size(); `out` holds m + 1 doubles), accumulated right to left.
// The PaperTail search and CanonicalOrderTable rows both build theirs
// here, so a borrowed row is bit-identical to an inline rebuild.
void tail_sums_into(std::span<const double> P, std::span<const ItemId> order,
                    std::span<double> out);

// Presorted solve: `order` must already be the canonical (Eq. 5) order
// of the candidate set — e.g. a precomputed CanonicalOrderTable row
// filtered against the cache — so the per-solve sort is skipped.
// `suffix_prob`, when non-empty, must hold the Figure-3 tail sums over
// `order` (size order.size() + 1, trailing 0 sentinel) and is borrowed
// instead of rebuilt; it is only consulted by DeltaRule::PaperTail.
// Bit-identical to solve_skp_into over the same candidate set.
void solve_skp_sorted_into(InstanceView inst, std::span<const ItemId> order,
                           const SkpOptions& opts, SkpWorkspace& ws,
                           SkpSolution& sol,
                           std::span<const double> suffix_prob = {});

// The root upper bound U_g* of Eq. (7): Dantzig bound of the LP relaxation
// (Theorem 2). Every feasible g*(F) is <= this value.
double skp_upper_bound(InstanceView inst);
double skp_upper_bound(InstanceView inst,
                       std::span<const ItemId> candidates);

}  // namespace skp
