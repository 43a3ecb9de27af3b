#include "core/arbitration.hpp"

#include <algorithm>

namespace skp {

ItemId choose_victim(InstanceView inst, std::span<const ItemId> cached,
                     const FreqTracker* freq, const ArbitrationConfig& cfg) {
  SKP_REQUIRE(!cached.empty(), "choose_victim over empty cache");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  if (cfg.sub == SubArbitration::None) {
    // Fast path (every demand miss lands here under the paper's default):
    // plain (Pr, id) minimum, no score indirection. All sub scores are 0,
    // so ties fall straight through to the id rule of the general loop.
    ItemId victim = kNoItem;
    double victim_pr = 0.0;
    for (const ItemId i : cached) {
      const std::size_t k = InstanceView::idx(i);
      const double pr = inst.P[k] * inst.r[k];
      if (victim == kNoItem || pr < victim_pr ||
          (pr == victim_pr && i < victim)) {
        victim = i;
        victim_pr = pr;
      }
    }
    return victim;
  }
  // Sub-arbitrated path: sub scores stay lazy — computed only when an
  // item becomes the running minimum or ties it.
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  double victim_sub = 0.0;
  for (const ItemId i : cached) {
    const std::size_t k = InstanceView::idx(i);
    const double pr = inst.P[k] * inst.r[k];
    if (victim == kNoItem || pr < victim_pr) {
      victim = i;
      victim_pr = pr;
      victim_sub = sub_score(*freq, cfg.sub, i, inst.r[k]);
      continue;
    }
    if (pr > victim_pr) continue;
    // Pr tie: sub-arbitration, then lowest id for determinism.
    const double s = sub_score(*freq, cfg.sub, i, inst.r[k]);
    if (s < victim_sub || (s == victim_sub && i < victim)) {
      victim = i;
      victim_sub = s;
    }
  }
  return victim;
}

ItemId choose_victim_in_order(InstanceView inst,
                              std::span<const ItemId> order) {
  SKP_REQUIRE(!order.empty(), "choose_victim over empty cache");
  ItemId victim = kNoItem;
  double victim_pr = 0.0;
  for (std::size_t j = order.size(); j-- > 0;) {
    const ItemId c = order[j];
    const std::size_t k = InstanceView::idx(c);
    const double pr = inst.P[k] * inst.r[k];
    if (pr == 0.0) return c;
    if (victim == kNoItem || pr < victim_pr) {
      victim = c;
      victim_pr = pr;
    }
  }
  return victim;
}

ItemId choose_victim_in_id_order(InstanceView inst, const SlotCache& cache) {
  SKP_REQUIRE(!cache.empty(), "choose_victim over empty cache");
  for (ItemId c = cache.next_cached(0); c != kNoItem;
       c = cache.next_cached(InstanceView::idx(c) + 1)) {
    const std::size_t k = InstanceView::idx(c);
    if (inst.P[k] * inst.r[k] == 0.0) return c;
  }
  return choose_victim(inst, cache.contents(), nullptr, ArbitrationConfig{});
}

bool admits_prefetch(InstanceView inst, ItemId f, ItemId d) {
  return inst.profit(f) >= inst.profit(d);
}

void VictimSet::clear() {
  victims.clear();
  freed = 0.0;
  total_pr = 0.0;
  ok = false;
}

VictimSet gather_victims_by_density(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free) {
  VictimSet out;
  std::vector<ItemId> pool;
  gather_victims_by_density_into(inst, cache, freq, cfg, needed_free, pool,
                                 out);
  return out;
}

void gather_victims_by_density_into(InstanceView inst,
                                    const SizedCache& cache,
                                    const FreqTracker* freq,
                                    const ArbitrationConfig& cfg,
                                    double needed_free,
                                    std::vector<ItemId>& pool,
                                    VictimSet& out) {
  SKP_REQUIRE(needed_free >= 0.0, "negative space request");
  SKP_REQUIRE(cfg.sub == SubArbitration::None || freq != nullptr,
              "sub-arbitration requires a FreqTracker");
  out.clear();
  double available = cache.free_space();
  if (available >= needed_free) {
    out.ok = true;
    return;
  }
  pool.assign(cache.contents().begin(), cache.contents().end());
  // Without sub-arbitration `freq` may be null and every score is 0.
  auto sub_of = [&](ItemId i) {
    return freq == nullptr
               ? 0.0
               : sub_score(*freq, cfg.sub, i, inst.r[InstanceView::idx(i)]);
  };
  auto density = [&](ItemId i) {
    return inst.profit(i) / cache.size_of(i);
  };
  std::sort(pool.begin(), pool.end(), [&](ItemId a, ItemId b) {
    const double da = density(a), db = density(b);
    if (da != db) return da < db;
    const double sa = sub_of(a), sb = sub_of(b);
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (const ItemId d : pool) {
    if (available >= needed_free) break;
    out.victims.push_back(d);
    out.freed += cache.size_of(d);
    out.total_pr += inst.profit(d);
    available += cache.size_of(d);
  }
  out.ok = available >= needed_free;
}

}  // namespace skp
