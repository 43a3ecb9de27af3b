// Model parameters of the paper (Section 2).
//
// An Instance bundles the speculative parameters (P_i, the probability that
// the next access is item i) and the resource parameters (r_i, the retrieval
// time of item i; v, the viewing time available for prefetching). Items are
// identified by their index in the catalog ("Items that might be accessed
// are uniquely numbered", Section 2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/require.hpp"

namespace skp {

using ItemId = std::int32_t;
constexpr ItemId kNoItem = -1;

// An ordered prefetch list F = K ++ <z> (Eq. 1): items are fetched in list
// order; the last element z is the only one allowed to stretch past v.
using PrefetchList = std::vector<ItemId>;

// The (P, r, v) triple of Section 2 for a catalog of n items.
//
// Invariants established by validate():
//   * P.size() == r.size() == n, n >= 1
//   * P_i >= 0 and sum(P) <= 1 + eps  (strictly == 1 for a full catalog;
//     < 1 is allowed because cache-aware planning restricts to N \ C while
//     penalties still span the full probability mass — see Section 5)
//   * r_i > 0, v >= 0
struct Instance {
  std::vector<double> P;
  std::vector<double> r;
  double v = 0.0;

  std::size_t n() const noexcept { return P.size(); }

  // Throws std::invalid_argument when any invariant is violated.
  void validate() const;

  // Profit of item i in the knapsack view: P_i * r_i.
  double profit(ItemId i) const { return P[idx(i)] * r[idx(i)]; }

  // Bounds-checked index helper.
  static std::size_t idx(ItemId i) {
    SKP_REQUIRE(i >= 0, "negative ItemId " << i);
    return static_cast<std::size_t>(i);
  }
};

// Borrowed view of an instance: spans over storage owned elsewhere (an
// Instance, a chain row scattered into a reused buffer + catalog
// retrieval times, a predictor's output buffer). The planning hot path
// runs entirely on views so per-request planning copies nothing; an
// owning Instance converts implicitly, so every solver/model entry point
// accepts either. The view must not outlive the storage it borrows.
struct InstanceView {
  std::span<const double> P;
  std::span<const double> r;
  double v = 0.0;

  InstanceView() = default;
  InstanceView(std::span<const double> P_, std::span<const double> r_,
               double v_) noexcept
      : P(P_), r(r_), v(v_) {}
  // NOLINTNEXTLINE(google-explicit-constructor): intentional — every
  // Instance call site keeps working unchanged through this conversion.
  InstanceView(const Instance& inst) noexcept
      : P(inst.P), r(inst.r), v(inst.v) {}

  std::size_t n() const noexcept { return P.size(); }

  // Throws std::invalid_argument when any Instance invariant is violated.
  void validate() const;

  // O(1) structural subset of validate() — sizes and v only. The
  // scratch-based planning overloads use this once per request and trust
  // the caller for the per-element invariants (their P/r rows come from
  // validated sources: Markov rows, normalized predictor output); the
  // convenience overloads still run the full validate().
  void validate_shape() const {
    SKP_REQUIRE(!P.empty(), "empty catalog");
    SKP_REQUIRE(P.size() == r.size(),
                "P/r size mismatch: " << P.size() << " vs " << r.size());
    SKP_REQUIRE(v >= 0.0, "viewing time v = " << v << " must be >= 0");
  }

  double profit(ItemId i) const { return P[idx(i)] * r[idx(i)]; }

  static std::size_t idx(ItemId i) {
    SKP_REQUIRE(i >= 0, "negative ItemId " << i);
    return static_cast<std::size_t>(i);
  }
};

// The canonical order of Eq. (5): probability descending; ties broken by
// retrieval time ascending; remaining ties by item id ascending so the
// order is a deterministic total order. Theorem 1 licenses restricting the
// SKP search to lists sorted this way.
std::vector<ItemId> canonical_order(InstanceView inst);

// Same, but restricted to a candidate subset (used by cache-aware planning,
// which solves the SKP over N \ C).
std::vector<ItemId> canonical_order(InstanceView inst,
                                    std::span<const ItemId> candidates);

// Allocation-free variant: writes the order into `out` (cleared first,
// capacity reused). `candidates` must not alias `out`.
void canonical_order_into(InstanceView inst,
                          std::span<const ItemId> candidates,
                          std::vector<ItemId>& out);

// Key-cached variant for the planning hot path: stages one (P, r, id)
// triple per candidate in `keys` and sorts those flat records, touching
// the instance once per candidate instead of twice per comparison. The
// order is a strict total order (ids are unique), so the result is
// identical to canonical_order_into.
struct CanonKey {
  double P;
  double r;
  ItemId id;
};
void canonical_order_into(InstanceView inst,
                          std::span<const ItemId> candidates,
                          std::vector<CanonKey>& keys,
                          std::vector<ItemId>& out);

// True when `a` precedes (or ties) `b` in the canonical order.
bool canonical_before(InstanceView inst, ItemId a, ItemId b);

// True when `list` is sorted per Eq. (5).
bool is_canonically_sorted(InstanceView inst, std::span<const ItemId> list);

// Normalizes a non-negative weight vector into probabilities (sum == 1).
// Throws if all weights are zero or any is negative.
std::vector<double> normalize_probabilities(std::span<const double> weights);

}  // namespace skp
