#include "core/access_model.hpp"

#include <algorithm>
#include <unordered_set>

namespace skp {

namespace {

double sum_r(InstanceView inst, std::span<const ItemId> items) {
  double s = 0.0;
  for (ItemId i : items) s += inst.r[InstanceView::idx(i)];
  return s;
}

double sum_P(InstanceView inst, std::span<const ItemId> items) {
  double s = 0.0;
  for (ItemId i : items) s += inst.P[InstanceView::idx(i)];
  return s;
}

bool contains(std::span<const ItemId> items, ItemId x) {
  return std::find(items.begin(), items.end(), x) != items.end();
}

}  // namespace

double stretch_time(InstanceView inst, std::span<const ItemId> F) {
  if (F.empty()) return 0.0;
  return std::max(0.0, sum_r(inst, F) - inst.v);
}

bool is_valid_prefetch_list(InstanceView inst, std::span<const ItemId> F) {
  if (F.empty()) return true;
  std::unordered_set<ItemId> seen;
  for (ItemId i : F) {
    if (i < 0 || static_cast<std::size_t>(i) >= inst.n()) return false;
    if (!seen.insert(i).second) return false;  // duplicate
  }
  // Eq. (1): all items except the last must fit strictly within v.
  const double r_K = sum_r(inst, F.subspan(0, F.size() - 1));
  return r_K < inst.v;
}

double expected_access_time_no_prefetch(InstanceView inst) {
  double s = 0.0;
  for (std::size_t i = 0; i < inst.n(); ++i) s += inst.P[i] * inst.r[i];
  return s;
}

double expected_access_time_prefetch(InstanceView inst,
                                     std::span<const ItemId> F) {
  if (F.empty()) return expected_access_time_no_prefetch(inst);
  SKP_REQUIRE(is_valid_prefetch_list(inst, F), "invalid prefetch list");
  const double st = stretch_time(inst, F);
  const ItemId z = F.back();
  double e = inst.P[InstanceView::idx(z)] * st;
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const auto id = static_cast<ItemId>(i);
    if (!contains(F, id)) e += inst.P[i] * (inst.r[i] + st);
  }
  return e;
}

double access_improvement(InstanceView inst, std::span<const ItemId> F) {
  if (F.empty()) return 0.0;
  SKP_REQUIRE(is_valid_prefetch_list(inst, F), "invalid prefetch list");
  const double st = stretch_time(inst, F);
  double gain = 0.0;
  for (ItemId i : F) gain += inst.profit(i);
  // Penalty mass: everything outside K = F \ {z} pays st(F).
  const double prob_K = sum_P(inst, F.subspan(0, F.size() - 1));
  return gain - (1.0 - prob_K) * st;
}

double theorem3_delta(InstanceView inst, ItemId z, double prob_in_K,
                      double stretch) {
  return inst.profit(z) - (1.0 - prob_in_K) * stretch;
}

double realized_access_time(InstanceView inst, std::span<const ItemId> F,
                            ItemId requested) {
  SKP_REQUIRE(requested >= 0 &&
                  static_cast<std::size_t>(requested) < inst.n(),
              "requested item out of range");
  if (F.empty()) return inst.r[InstanceView::idx(requested)];
  const double st = stretch_time(inst, F);
  const ItemId z = F.back();
  if (requested == z) return st;
  if (contains(F.subspan(0, F.size() - 1), requested)) return 0.0;
  return st + inst.r[InstanceView::idx(requested)];
}

double expected_access_time_no_prefetch_cached(InstanceView inst,
                                               std::span<const ItemId> C) {
  double s = 0.0;
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const auto id = static_cast<ItemId>(i);
    if (!contains(C, id)) s += inst.P[i] * inst.r[i];
  }
  return s;
}

double expected_access_time_no_prefetch_cached(
    InstanceView inst, std::span<const char> cache_presence) {
  SKP_REQUIRE(cache_presence.size() == inst.n(),
              "presence bitmap of " << cache_presence.size()
                                    << " vs catalog of " << inst.n());
  double s = 0.0;
  for (std::size_t i = 0; i < inst.n(); ++i) {
    if (cache_presence[i] == 0) s += inst.P[i] * inst.r[i];
  }
  return s;
}

double access_improvement_cached(InstanceView inst,
                                 std::span<const ItemId> F,
                                 std::span<const ItemId> D,
                                 std::span<const ItemId> C) {
  for (ItemId f : F)
    SKP_REQUIRE(!contains(C, f), "prefetch item " << f << " already cached");
  for (ItemId d : D)
    SKP_REQUIRE(contains(C, d), "eviction victim " << d << " not in cache");
  const double g_star = access_improvement(inst, F);
  const double st = stretch_time(inst, F);
  double anti_g = 0.0;
  for (ItemId d : D) anti_g += inst.profit(d);
  for (ItemId c : C) {
    if (!contains(D, c)) anti_g -= inst.P[InstanceView::idx(c)] * st;
  }
  return g_star - anti_g;
}

double realized_access_time_cached(InstanceView inst,
                                   std::span<const ItemId> F,
                                   std::span<const ItemId> D,
                                   std::span<const ItemId> C,
                                   ItemId requested) {
  SKP_REQUIRE(requested >= 0 &&
                  static_cast<std::size_t>(requested) < inst.n(),
              "requested item out of range");
  const double st = stretch_time(inst, F);
  if (!F.empty()) {
    const ItemId z = F.back();
    if (requested == z) return st;
    if (contains(F.subspan(0, F.size() - 1), requested)) return 0.0;
  }
  if (contains(C, requested) && !contains(D, requested)) return 0.0;
  return st + inst.r[InstanceView::idx(requested)];
}

double realized_access_time_cached(InstanceView inst,
                                   std::span<const ItemId> F,
                                   std::span<const ItemId> D,
                                   std::span<const char> cache_presence,
                                   ItemId requested) {
  SKP_REQUIRE(requested >= 0 &&
                  static_cast<std::size_t>(requested) < inst.n(),
              "requested item out of range");
  const double st = stretch_time(inst, F);
  if (!F.empty()) {
    const ItemId z = F.back();
    if (requested == z) return st;
    if (contains(F.subspan(0, F.size() - 1), requested)) return 0.0;
  }
  if (cache_presence[static_cast<std::size_t>(requested)] != 0 &&
      !contains(D, requested)) {
    return 0.0;
  }
  return st + inst.r[InstanceView::idx(requested)];
}

}  // namespace skp
