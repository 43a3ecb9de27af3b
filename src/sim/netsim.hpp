// Discrete-event model of the distributed information system.
//
// The analytic model of the paper abstracts the network into one number
// per item (the retrieval time r_i). This substrate grounds that number:
// a client talks to a server over a serial link with per-transfer latency
// and finite bandwidth, so r_i = latency + size_i / bandwidth. Transfers
// are serialized in FIFO order, and — per the paper's Section-2 assumption
// — an in-progress or queued prefetch is never aborted or preempted: a
// demand fetch waits for every committed prefetch to finish ("we assume
// that the prefetch completes before the demand fetch").
//
// With latency = 0 and sizes = r_i * bandwidth, a ClientSession reproduces
// the closed-form access times of Sections 3/5 exactly; the integration
// tests pin that equivalence, which is what justifies using the analytic
// model everywhere else.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "core/prefetch_engine.hpp"
#include "sim/fault.hpp"
#include "sim/link_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/resident_set.hpp"
#include "util/rng.hpp"

namespace skp {

struct NetConfig {
  double bandwidth = 1.0;   // size units per time unit
  double latency = 0.0;     // per-transfer setup cost
  // Extension: piecewise time-varying link quality (sim/link_schedule.hpp).
  // Non-empty overrides (bandwidth, latency) for transfer PRICING only —
  // the phase in force at a transfer's start sets its whole duration,
  // while planning keeps seeing the base static r_i (the client's stale
  // link estimate). Empty = static paper-semantics link.
  std::vector<LinkPhase> schedule;

  // Realized wall-clock cost of moving `size` units starting at absolute
  // time `start`.
  double transfer_time(double size, double start) const {
    if (schedule.empty()) return latency + size / bandwidth;
    const LinkPhase& phase = link_phase_at(schedule, start);
    return phase.latency + size / phase.bandwidth;
  }
};

// Item catalog on the server side: sizes determine retrieval times.
struct ServerCatalog {
  std::vector<double> sizes;

  std::size_t n() const noexcept { return sizes.size(); }
  double retrieval_time(ItemId item, const NetConfig& net) const {
    SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < sizes.size(),
                "item out of range");
    return net.latency + sizes[static_cast<std::size_t>(item)] /
                             net.bandwidth;
  }
  std::vector<double> retrieval_times(const NetConfig& net) const;
};

// The read-mostly slice of a ClientSession: the server-side size catalog
// plus the canonical retrieval costs r_i = latency + size_i / bandwidth
// under the net it was grounded with. Immutable after construction, so
// any number of sessions of the same spec group reference ONE instance
// (sim/catalog.hpp builds and interns them) instead of each copying two
// n-sized vectors — the first rung of the bytes/session ladder.
struct SharedClientCatalog {
  ServerCatalog server;
  std::vector<double> r;

  std::size_t n() const noexcept { return server.n(); }
  std::size_t footprint_bytes() const noexcept {
    return (server.sizes.capacity() + r.capacity()) * sizeof(double);
  }
};

// One client session driving the DES. The caller supplies, per user cycle,
// the viewing time, the next-access distribution in force during it, and
// the item the user then requests; the session plans prefetches with its
// engine, executes them on the link, and reports the realized access time.
class ClientSession {
 public:
  // Private-catalog constructor: wraps `catalog` (and its retrieval
  // times under `net`) into a session-owned SharedClientCatalog.
  // Semantics identical to the shared-catalog constructor below — this
  // is the convenience path for tests and single-session callers.
  ClientSession(ServerCatalog catalog, NetConfig net, EngineConfig engine,
                std::size_t cache_capacity);

  // Shared-catalog constructor: the session references `catalog` without
  // copying it. `net` must price transfers with the same base
  // bandwidth/latency the catalog's r was grounded with (the link
  // schedule may differ — it re-prices realized transfers only, never
  // the planning costs).
  ClientSession(std::shared_ptr<const SharedClientCatalog> catalog,
                NetConfig net, EngineConfig engine,
                std::size_t cache_capacity);

  // Opts this session into cross-request plan memoization
  // (core/plan_cache.hpp). Cycles planning under a `context_key` replay
  // stored selections, and plans when the same (key, cache contents)
  // pair recurs. The tiers follow make_memo_tiers with oracle rows: the
  // caller promises a context key stands for fixed rows, and under
  // LFU/DS no plan tier is built (frequencies move every request). The
  // session builds no canonical-order table. Results are bit-identical
  // with or without (the memo key only ever stands in for identical
  // planning inputs).
  void enable_plan_cache(std::size_t capacity = PlanCache::kDefaultCapacity);
  bool plan_cache_enabled() const noexcept { return memo_.enabled(); }
  // Retires every stored plan and selection. Callers whose context-key
  // promise breaks — e.g. a drifting workload redrawing the rows behind
  // its state keys — invoke this at the changepoint; a no-op when the
  // plan cache is disabled.
  void invalidate_plan_cache() noexcept { memo_.invalidate(); }
  // Both tiers' counters (zeros for a tier that was not built).
  PlanMemoStats plan_cache_stats() const noexcept { return memo_.stats(); }

  // Arms prefetch-transfer fault injection (sim/fault.hpp). `stream` must
  // be the dedicated fault stream — Rng(seed).split(kFaultStreamSalt) —
  // so fault draws never perturb the workload or decision streams; draws
  // happen only when a prefetch commits, in link order. Demand fetches
  // stay reliable (they are the fallback).
  void set_fault_injection(const FaultSpec& spec, Rng stream);
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }

  // Overload rung kStrictAdmission (core/overload.hpp): freeze or thaw
  // plan-cache admission on both memo tiers. No-op while the plan cache
  // is disabled.
  void set_plan_admission_frozen(bool frozen) noexcept {
    memo_.freeze(frozen);
  }

  // Runs one cycle: think for `viewing_time` (prefetching meanwhile), then
  // request `item`. Returns the access time the user experienced.
  // `context_key`, when engaged and the plan cache is enabled, keys plan
  // memoization: the caller promises it uniquely determines
  // (next_probs, viewing_time) for the session's lifetime — e.g. a Markov
  // state id. Pass std::nullopt (the default) to plan unmemoized.
  //
  // `support`, when engaged, lists in ascending id order a superset of
  // the nonzero entries of `next_probs` (e.g. a Markov row's successors,
  // or a predictor's filtered support): every entry outside it must be
  // +0.0. P's handling then costs O(support): the request plans on
  // `next_probs` in place, validates P on the support only (ids
  // ascending and in range; entries >= 0 and finite; sum <= 1 + 1e-9,
  // the same sum the dense check takes since the skipped entries are
  // +0.0) and hands the support to the planner's candidate filter as
  // its positive_hint — an empty support plans nothing without a
  // catalog scan. Without it, P is copied and validated densely. Both
  // forms decide identically.
  double request(ItemId item, double viewing_time,
                 std::span<const double> next_probs,
                 std::optional<ItemId> oracle_next = std::nullopt,
                 std::optional<std::uint64_t> context_key = std::nullopt,
                 std::optional<std::span<const ItemId>> support
                 = std::nullopt);

  const SimMetrics& metrics() const noexcept { return metrics_; }
  const SlotCache& cache() const noexcept { return book_.cache(); }
  const SharedClientCatalog& catalog() const noexcept { return *cat_; }
  double now() const noexcept { return now_; }
  // Fraction of elapsed time the link spent transferring.
  double link_utilization() const;

 private:
  // Schedules a transfer after everything currently committed; returns its
  // completion time.
  double enqueue_transfer(ItemId item);
  // Books a transfer's link occupancy `busy` at its `finish` (>= now).
  void book_link_busy(double finish, double busy);
  // Advances the clock to `horizon`, first adding the occupancy of every
  // transfer that finishes by then, in finish order.
  void run_until(double horizon);
  // Schedules a prefetch through the fault model (the reliable path when
  // faults are disarmed). nullopt = the retry budget was exhausted and
  // the transfer abandoned; the caller rolls the claimed slot back.
  std::optional<double> enqueue_prefetch(ItemId item);

  std::shared_ptr<const SharedClientCatalog> cat_;
  NetConfig net_;
  PrefetchEngine engine_;
  ResidentSet<SlotCache> book_;
  // The link clock. Transfers are serialized on one link, so their
  // finishes never decrease: pending occupancies form a FIFO, drained
  // from link_head_ and compacted once the drained prefix is half of it
  // (a vector, so an idle session allocates nothing).
  struct LinkBusy {
    double finish;
    double busy;
  };
  double now_ = 0.0;
  std::vector<LinkBusy> link_pending_;
  std::size_t link_head_ = 0;
  SimMetrics metrics_;
  FaultSpec fault_;       // default (disabled) = legacy reliable link
  Rng fault_rng_;         // dedicated stream, armed by set_fault_injection
  FaultStats fault_stats_;
  double link_free_at_ = 0.0;
  double link_busy_total_ = 0.0;
  std::vector<double> completion_;   // per-item transfer completion time
  // Per-cycle planning state, reused so request() never allocates after
  // the first cycle: the retrieval-time catalog lives in cat_->r, P is
  // refilled from the caller's next_probs on the dense path.
  std::vector<double> P_;
  PlanScratch scratch_;
  PrefetchPlan plan_;
  MemoTiers memo_;
};

}  // namespace skp
