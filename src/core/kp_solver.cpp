#include "core/kp_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace skp {

namespace {

std::vector<ItemId> all_items(InstanceView inst) {
  std::vector<ItemId> ids(inst.n());
  std::iota(ids.begin(), ids.end(), ItemId{0});
  return ids;
}

// Recursive Horowitz–Sahni style depth-first search. Items are visited in
// canonical (profit-density descending) order; at each node the Dantzig
// bound prunes subtrees that cannot beat the incumbent. The search visits
// at most kSolveNodeBudget nodes. All working memory is borrowed from a
// KpWorkspace so repeated solves never allocate.
class KpSearch {
 public:
  KpSearch(InstanceView inst, std::span<const ItemId> order, KpWorkspace& ws)
      : inst_(inst), order_(order), ws_(ws) {
    ws_.chosen.assign(order_.size(), 0);
    ws_.best_chosen.assign(order_.size(), 0);
  }

  void run(double capacity, KpSolution& sol) {
    capacity_ = capacity;
    dfs(0, 0.0, 0.0);
    sol.value = best_value_;
    sol.nodes = nodes_;
    sol.pruned = pruned_;
    sol.node_limit_hit = limit_hit_;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (ws_.best_chosen[i]) {
        sol.items.push_back(order_[i]);
        sol.weight += inst_.r[InstanceView::idx(order_[i])];
      }
    }
  }

 private:
  void dfs(std::size_t depth, double value, double weight) {
    if (nodes_ >= kSolveNodeBudget) {
      limit_hit_ = true;
      return;
    }
    ++nodes_;
    if (value > best_value_) {
      best_value_ = value;
      std::copy(ws_.chosen.begin(), ws_.chosen.end(),
                ws_.best_chosen.begin());
    }
    if (depth == order_.size()) return;
    const double residual = capacity_ - weight;
    const double bound = dantzig_bound(inst_, order_, depth, residual);
    if (value + bound <= best_value_) {
      ++pruned_;
      return;
    }
    const auto id_i = static_cast<std::size_t>(order_[depth]);
    const double w = inst_.r[id_i];
    if (w <= residual) {  // take
      ws_.chosen[depth] = 1;
      dfs(depth + 1, value + inst_.P[id_i] * w, weight + w);
      ws_.chosen[depth] = 0;
    }
    dfs(depth + 1, value, weight);  // skip
  }

  InstanceView inst_;
  std::span<const ItemId> order_;
  KpWorkspace& ws_;
  double capacity_ = 0.0;
  double best_value_ = 0.0;
  std::uint64_t nodes_ = 0;
  std::uint64_t pruned_ = 0;
  bool limit_hit_ = false;
};

}  // namespace

void KpSolution::clear() {
  items.clear();
  value = 0.0;
  weight = 0.0;
  nodes = 0;
  pruned = 0;
  node_limit_hit = false;
}

double dantzig_bound(InstanceView inst, std::span<const ItemId> order,
                     std::size_t from, double capacity) {
  if (capacity <= 0.0) return 0.0;
  double bound = 0.0;
  double residual = capacity;
  for (std::size_t i = from; i < order.size(); ++i) {
    // `order` is a validated canonical order; index unchecked (this bound
    // is evaluated at every node of both searches).
    const auto id_i = static_cast<std::size_t>(order[i]);
    const double w = inst.r[id_i];
    if (w <= residual) {
      bound += inst.P[id_i] * w;
      residual -= w;
    } else {
      // Fractional fill of the first item that does not fit (Eq. 7 uses
      // (v - sum r) * P_z, and profit/weight = P_z).
      bound += residual * inst.P[id_i];
      return bound;
    }
  }
  return bound;
}

void solve_kp_bb_into(InstanceView inst, std::span<const ItemId> candidates,
                      KpWorkspace& ws, KpSolution& sol) {
  canonical_order_into(inst, candidates, ws.order_keys, ws.order);
  solve_kp_bb_sorted_into(inst, ws.order, ws, sol);
}

void solve_kp_bb_sorted_into(InstanceView inst,
                             std::span<const ItemId> order, KpWorkspace& ws,
                             KpSolution& sol) {
  sol.clear();
  KpSearch search(inst, order, ws);
  search.run(inst.v, sol);
}

KpSolution solve_kp_bb(InstanceView inst,
                       std::span<const ItemId> candidates) {
  inst.validate();
  KpWorkspace ws;
  KpSolution sol;
  solve_kp_bb_into(inst, candidates, ws, sol);
  return sol;
}

KpSolution solve_kp_bb(InstanceView inst) {
  const auto ids = all_items(inst);
  return solve_kp_bb(inst, ids);
}

KpSolution solve_kp_dp(InstanceView inst,
                       std::span<const ItemId> candidates) {
  inst.validate();
  SKP_REQUIRE(inst.v == std::floor(inst.v), "DP requires integral v");
  const auto cap = static_cast<std::size_t>(inst.v);
  for (ItemId i : candidates) {
    const double w = inst.r[InstanceView::idx(i)];
    SKP_REQUIRE(w == std::floor(w), "DP requires integral weights, r["
                                        << i << "] = " << w);
  }
  const std::size_t n = candidates.size();
  // value[w] = best profit with capacity w considering a prefix of items;
  // keep[i][w] records the take/skip decision for reconstruction.
  std::vector<double> value(cap + 1, 0.0);
  std::vector<std::vector<char>> keep(n, std::vector<char>(cap + 1, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const ItemId id = candidates[i];
    const auto w = static_cast<std::size_t>(inst.r[InstanceView::idx(id)]);
    const double p = inst.profit(id);
    if (w > cap) continue;
    for (std::size_t c = cap; c >= w; --c) {
      const double with = value[c - w] + p;
      if (with > value[c]) {
        value[c] = with;
        keep[i][c] = 1;
      }
      if (c == w) break;  // avoid size_t underflow
    }
  }
  KpSolution sol;
  sol.value = value[cap];
  std::size_t c = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (keep[i][c]) {
      const ItemId id = candidates[i];
      sol.items.push_back(id);
      const auto w = static_cast<std::size_t>(inst.r[InstanceView::idx(id)]);
      sol.weight += static_cast<double>(w);
      c -= w;
    }
  }
  std::sort(sol.items.begin(), sol.items.end(), [&](ItemId a, ItemId b) {
    return canonical_before(inst, a, b);
  });
  return sol;
}

KpSolution solve_kp_dp(InstanceView inst) {
  const auto ids = all_items(inst);
  return solve_kp_dp(inst, ids);
}

KpSolution greedy_kp(InstanceView inst, std::span<const ItemId> candidates) {
  inst.validate();
  KpSolution sol;
  double residual = inst.v;
  for (ItemId id : canonical_order(inst, candidates)) {
    const double w = inst.r[InstanceView::idx(id)];
    if (w <= residual) {
      sol.items.push_back(id);
      sol.value += inst.profit(id);
      sol.weight += w;
      residual -= w;
    }
  }
  return sol;
}

}  // namespace skp
