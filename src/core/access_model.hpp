// The access-time performance model (Sections 3 and 5 of the paper).
//
// Conventions:
//  * F is an ordered prefetch list; K = F without its last element z.
//    Eq. (1) requires sum(r over K) < v, i.e. only z may stretch.
//  * st(F) = max(0, sum(r over F) - v)                        (Eq. 2)
//  * Empty-cache access improvement                            (Eq. 3)
//        g*(F) = sum_{i in F} P_i r_i  -  sum_{i in N\K} P_i * st(F)
//    The penalty mass sum_{i in N\K} P_i equals 1 - sum_{i in K} P_i,
//    the whole catalog's probability less K's. Cache-aware planning
//    solves the SKP over N \ C yet the stretch still delays every non-K
//    outcome, so the same complement form applies.
//  * Cache-aware improvement                                   (Eq. 9)
//        g(F, D) = g*(F) - ( sum_{i in D} P_i r_i
//                            - sum_{i in C\D} P_i * st(F) )
#pragma once

#include <span>

#include "core/item.hpp"

namespace skp {

// st(F): the amount by which F's total retrieval time exceeds v (Eq. 2).
double stretch_time(InstanceView inst, std::span<const ItemId> F);

// True when F satisfies the Eq.-(1) construction: no duplicate items, and
// the retrieval times of all but the last element fit strictly within v.
// The empty list is valid (prefetch nothing).
bool is_valid_prefetch_list(InstanceView inst, std::span<const ItemId> F);

// E(T* | no prefetch) = sum_i P_i r_i (empty cache).
double expected_access_time_no_prefetch(InstanceView inst);

// E(T* | prefetch F) = P_z st(F) + sum_{i in N\F} P_i (r_i + st(F)).
double expected_access_time_prefetch(InstanceView inst,
                                     std::span<const ItemId> F);

// g*(F) per Eq. (3).
double access_improvement(InstanceView inst, std::span<const ItemId> F);

// Theorem 3: g*(K ++ <z>) = g*(K) + delta with
//   delta = P_z r_z - (1 - sum_{i in K} P_i) * st(K ++ <z>).
// `prob_in_K` = sum of P over K; `stretch` = st(K ++ <z>).
double theorem3_delta(InstanceView inst, ItemId z, double prob_in_K,
                      double stretch);

// Realized (not expected) access time of the empty-cache model, given the
// item actually requested (Figure 2 of the paper):
//   requested in K      -> 0
//   requested == z      -> st(F)
//   requested not in F  -> st(F) + r_requested
double realized_access_time(InstanceView inst, std::span<const ItemId> F,
                            ItemId requested);

// ---- Section 5: cache in play -------------------------------------------

// E(T | no prefetch, cache C) = sum_{i in N\C} P_i r_i.
double expected_access_time_no_prefetch_cached(InstanceView inst,
                                               std::span<const ItemId> C);

// Bitmap variant for hot loops: identical result (same ascending-i
// accumulation order, bit-for-bit), with C supplied as a presence bitmap
// over the whole catalog (e.g. SlotCache::presence()) so membership is
// one load instead of a scan of C. cache_presence.size() must equal
// inst.n().
double expected_access_time_no_prefetch_cached(
    InstanceView inst, std::span<const char> cache_presence);

// g(F, D) per Eq. (9). F must be disjoint from C; D must be a sublist of C.
double access_improvement_cached(InstanceView inst,
                                 std::span<const ItemId> F,
                                 std::span<const ItemId> D,
                                 std::span<const ItemId> C);

// Realized access time with cache: requested in K or in C\D -> 0;
// requested == z -> st(F); otherwise st(F) + r_requested.
double realized_access_time_cached(InstanceView inst,
                                   std::span<const ItemId> F,
                                   std::span<const ItemId> D,
                                   std::span<const ItemId> C,
                                   ItemId requested);

// O(1)-membership variant for per-request hot loops: identical result,
// with C supplied as a presence bitmap over the catalog (e.g.
// SlotCache::presence()) so the cost no longer scans the cache contents.
double realized_access_time_cached(InstanceView inst,
                                   std::span<const ItemId> F,
                                   std::span<const ItemId> D,
                                   std::span<const char> cache_presence,
                                   ItemId requested);

}  // namespace skp
