#include "core/skp_solver.hpp"

#include <algorithm>
#include <numeric>

#include "core/access_model.hpp"
#include "core/kp_solver.hpp"

namespace skp {

namespace {

// Iterative transcription of the paper's Figure 3. The three goto targets
// (2: bound, 3: forward, 5: backtrack) become phases of one loop; the
// selection stack records (index, delta) so backtracking reverses g-hat
// exactly (the paper recomputes delta, which is identical in real
// arithmetic; storing it avoids floating-point drift). All working memory
// is borrowed from an SkpWorkspace so repeated solves never allocate.
class SkpSearch {
 public:
  // `suffix_prob`, when non-empty, is a caller-precomputed Figure-3 tail
  // sum over `order` (size m + 1, trailing 0 sentinel — e.g. a
  // CanonicalOrderTable row) and is borrowed instead of rebuilt. It is
  // only consulted by the PaperTail delta rule, so with ExactComplement
  // and no precomputed span the setup is skipped entirely.
  SkpSearch(InstanceView inst, std::span<const ItemId> order,
            const SkpOptions& opts, SkpWorkspace& ws, SkpSolution& sol,
            std::span<const double> suffix_prob)
      : inst_(inst), order_(order), opts_(opts), ws_(ws), sol_(sol) {
    const std::size_t m = order_.size();
    if (!suffix_prob.empty()) {
      SKP_ASSERT(suffix_prob.size() == m + 1);
      suffix_ = suffix_prob;
    } else if (opts_.delta_rule == DeltaRule::PaperTail) {
      ws_.suffix_prob.resize(m + 1);
      tail_sums_into(inst_.P, order_, ws_.suffix_prob);
      suffix_ = ws_.suffix_prob;
    }
    ws_.selected.assign(m, 0);
    ws_.best_selected.assign(m, 0);
    ws_.stack.clear();
  }

  void run() {
    const std::size_t m = order_.size();
    std::size_t j = 0;
    double residual = inst_.v;     // v-hat
    double g_cur = 0.0;            // g-hat
    double prob_selected = 0.0;    // sum of P over currently selected items

    enum class Phase { Bound, Forward, Backtrack };
    Phase phase = Phase::Bound;

    for (;;) {
      if (sol_.forward_steps >= kSolveNodeBudget) {
        sol_.node_limit_hit = true;
        break;
      }
      switch (phase) {
        case Phase::Bound: {  // Figure 3, step 2
          const double ub =
              dantzig_bound(inst_, order_, j, std::max(0.0, residual));
          if (best_g_ >= g_cur + ub) {
            ++sol_.bound_prunes;
            phase = Phase::Backtrack;
          } else {
            phase = Phase::Forward;
          }
          break;
        }
        case Phase::Forward: {  // Figure 3, step 3 (+ step 4 at the end)
          bool rebound = false;
          while (j < m && residual > 0.0) {
            // Ids come from the validated canonical order; index
            // unchecked (this is the innermost loop of the search).
            const auto id_i = static_cast<std::size_t>(order_[j]);
            const double rj = inst_.r[id_i];
            const double st = std::max(0.0, rj - residual);
            const double penalty = penalty_mass(j, prob_selected);
            const double delta = inst_.P[id_i] * rj - penalty * st;
            ++sol_.forward_steps;
            if (delta <= 0.0) {
              ws_.selected[j] = 0;
              ++j;
              // Figure 3: "if j < n then goto 2" — refresh the bound
              // unless the *last* item is next.
              if (j + 1 < m) {
                rebound = true;
                break;
              }
            } else {
              residual -= rj;
              g_cur += delta;
              ws_.selected[j] = 1;
              prob_selected += inst_.P[id_i];
              ws_.stack.push_back({j, delta, rj, inst_.P[id_i]});
              ++j;
            }
          }
          if (rebound) {
            phase = Phase::Bound;
            break;
          }
          // Step 4: solution complete (stretched, exact fit, or exhausted).
          if (g_cur > best_g_) {
            best_g_ = g_cur;
            std::copy(ws_.selected.begin(), ws_.selected.end(),
                      ws_.best_selected.begin());
          }
          phase = Phase::Backtrack;
          break;
        }
        case Phase::Backtrack: {  // Figure 3, step 5
          if (ws_.stack.empty()) {
            finish();
            return;
          }
          ++sol_.backtracks;
          const SkpMove mv = ws_.stack.back();
          ws_.stack.pop_back();
          ws_.selected[mv.index] = 0;
          residual += mv.r;
          prob_selected -= mv.P;
          g_cur -= mv.delta;
          j = mv.index + 1;
          phase = Phase::Bound;
          break;
        }
      }
    }
    finish();  // budget exit: report the incumbent
  }

 private:
  double penalty_mass(std::size_t j, double prob_selected) const {
    switch (opts_.delta_rule) {
      case DeltaRule::PaperTail:
        return suffix_[j];
      case DeltaRule::ExactComplement:
        return 1.0 - prob_selected;
    }
    return 1.0 - prob_selected;  // unreachable
  }

  void finish() {
    sol_.g = best_g_;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (ws_.best_selected[i]) sol_.F.push_back(order_[i]);
    }
    sol_.stretch = stretch_time(inst_, sol_.F);
  }

  InstanceView inst_;
  std::span<const ItemId> order_;
  SkpOptions opts_;
  SkpWorkspace& ws_;
  SkpSolution& sol_;
  std::span<const double> suffix_;  // PaperTail tail sums (may be empty)
  double best_g_ = 0.0;
};

}  // namespace

void tail_sums_into(std::span<const double> P, std::span<const ItemId> order,
                    std::span<double> out) {
  const std::size_t m = order.size();
  SKP_ASSERT(out.size() == m + 1);
  out[m] = 0.0;
  for (std::size_t j = m; j-- > 0;) {
    out[j] = out[j + 1] + P[InstanceView::idx(order[j])];
  }
}

void SkpSolution::clear() {
  F.clear();
  g = 0.0;
  stretch = 0.0;
  forward_steps = 0;
  backtracks = 0;
  bound_prunes = 0;
  node_limit_hit = false;
}

void solve_skp_into(InstanceView inst, std::span<const ItemId> candidates,
                    const SkpOptions& opts, SkpWorkspace& ws,
                    SkpSolution& sol) {
  canonical_order_into(inst, candidates, ws.order_keys, ws.order);
  solve_skp_sorted_into(inst, ws.order, opts, ws, sol);
}

void solve_skp_sorted_into(InstanceView inst, std::span<const ItemId> order,
                           const SkpOptions& opts, SkpWorkspace& ws,
                           SkpSolution& sol,
                           std::span<const double> suffix_prob) {
  sol.clear();
  SkpSearch search(inst, order, opts, ws, sol, suffix_prob);
  search.run();
}

SkpSolution solve_skp(InstanceView inst, std::span<const ItemId> candidates,
                      const SkpOptions& opts) {
  inst.validate();
  SkpWorkspace ws;
  SkpSolution sol;
  solve_skp_into(inst, candidates, opts, ws, sol);
  return sol;
}

SkpSolution solve_skp(InstanceView inst, const SkpOptions& opts) {
  std::vector<ItemId> ids(inst.n());
  std::iota(ids.begin(), ids.end(), ItemId{0});
  return solve_skp(inst, ids, opts);
}

double skp_upper_bound(InstanceView inst,
                       std::span<const ItemId> candidates) {
  inst.validate();
  const auto order = canonical_order(inst, candidates);
  return dantzig_bound(inst, order, 0, inst.v);
}

double skp_upper_bound(InstanceView inst) {
  std::vector<ItemId> ids(inst.n());
  std::iota(ids.begin(), ids.end(), ItemId{0});
  return skp_upper_bound(inst, ids);
}

}  // namespace skp
