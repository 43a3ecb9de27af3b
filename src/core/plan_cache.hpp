// Cross-request plan memoization (the "amortize work across solves"
// ROADMAP rung).
//
// The Markov-driven simulators re-solve the same planning instance
// thousands of times: in oracle mode the (P, r, v) triple is fully
// determined by the current source state, so a completed plan is
// reusable whenever the same (state, cache contents) pair recurs — which
// is constantly under every stationary workload. The substrates live
// here; PrefetchEngine's plan*_cached overloads consume them via a
// PlanMemo:
//
//  * PlanCache — a bounded, LRU-evicted map from (64-bit key, Zobrist
//    fingerprint, generation) to a stored plan, pinned to one engine
//    configuration by a digest checked on every use. The engine runs two
//    memoization tiers over separate PlanCache instances:
//      - the *plan* tier keys completed Figure-6 plans by (state, cache
//        contents) — a hit skips the whole pipeline, but exact cache
//        sets only recur once the cache stabilizes;
//      - the *selection* tier keys the solver stage by (state, candidate
//        set = support \ cache). The (S)KP solve is the dominant
//        per-request cost and depends on nothing else — in particular
//        not on LFU/DS frequencies — so this tier hits constantly even
//        while the cache churns, and serves every sub-arbitration mode.
//    The generation tag is the invalidation hook for context a key does
//    not capture (a drift changepoint, an overload rung change, a
//    client's churn), so entries that depended on that context become
//    unreachable instead of wrong.
//  * CanonicalOrderTable — the per-state canonical solve order (Eq. 5
//    density sort) plus the Figure-3/Dantzig suffix probability sums,
//    built once per state and reused by every cache-miss solve (the
//    filtered candidate list of a canonically sorted support is itself
//    canonically sorted, so the per-solve sort disappears). Rows are
//    generation-tagged and lazily rebuilt after invalidate_all(), the
//    hook for rows that change under a state key.
//  * MemoTiers — the tiers one simulation plans through, built by
//    make_memo_tiers: the one rule deciding which tiers can hit.
//
// All are plain per-simulation state, not thread-safe: parallel sweeps
// give each sweep point its own (which also keeps results independent of
// thread count). Correctness contract: a stored plan is replayed only
// for keys under which the planning inputs are provably identical, so
// cached and uncached runs are bit-identical on every simulator counter
// (tests/test_prefetch_cache_sim.cpp pins this at fixed seeds).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/arbitration.hpp"
#include "core/item.hpp"
#include "util/arena.hpp"

namespace skp {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  // Insertions the doorkeeper turned away (first sighting of a key).
  std::uint64_t door_rejects = 0;

  std::uint64_t lookups() const noexcept { return hits + misses; }
  double hit_rate() const noexcept {
    const std::uint64_t n = lookups();
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
  void merge(const PlanCacheStats& other) noexcept;
};

// Counters for both memoization tiers, as reported by the simulators.
struct PlanMemoStats {
  PlanCacheStats plans;       // completed-plan tier: (state, cache set)
  PlanCacheStats selections;  // solver tier: (state, candidate set)

  void merge(const PlanMemoStats& other) noexcept {
    plans.merge(other.plans);
    selections.merge(other.selections);
  }
};

// The memoized planning payload — and the base of
// core/prefetch_engine.hpp's PrefetchPlan, which derives from it (one
// definition of the replayable fields, so the cache can never drift out
// of sync with the plan type). Replay and store are plain assignments
// of this slice.
struct StoredPlan {
  // Items to fetch, in fetch order (the last element may stretch).
  PrefetchList fetch;
  // Victims to evict. For slot-cache plans, aligned with `fetch`
  // (evict[k] makes room for fetch[k], empty while free slots remain);
  // for sized-cache plans, the flat victim set.
  std::vector<ItemId> evict;
  // Predicted access improvement (solver objective; Eq. 3 / Eq. 9
  // consistent for SKP with ExactComplement). Diagnostic only — no
  // simulator consumes it, and EngineConfig::evaluate_plan_g can skip
  // its cache-aware evaluation entirely. A memoized replay returns the
  // value as computed at store time, whose Eq.-(9) summation followed
  // the cache's *then-current* iteration order; same-set caches reached
  // through different histories can disagree in its last fp bits.
  double predicted_g = 0.0;
  double stretch = 0.0;
  // Solver statistics (SKP/KP searches).
  std::uint64_t solver_nodes = 0;
};

class PlanCache {
 public:
  // `config_digest` pins the cache to one engine configuration (see
  // engine_config_digest in core/prefetch_engine.hpp); the engine
  // refuses to consult a cache built for a different config. `capacity`
  // bounds the entry count; the least recently used entry is evicted on
  // overflow (its buffers are recycled for the incoming plan).
  //
  // `doorkeeper` (TinyLFU-style admission filter): a key's FIRST insert
  // is recorded in a small hash sketch and turned away; only a key seen
  // again is stored for real. Workload phases whose keys never recur
  // (e.g. a churning cache fingerprint) then cost two array writes per
  // miss instead of a map insert + LRU eviction, while phases with
  // genuine reuse lose exactly one hit per key. Purely an overhead
  // valve: lookups are unaffected and results never change.
  explicit PlanCache(std::uint64_t config_digest,
                     std::size_t capacity = kDefaultCapacity,
                     bool doorkeeper = false);

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 13;

  std::uint64_t config_digest() const noexcept { return config_digest_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return nodes_.size(); }
  const PlanCacheStats& stats() const noexcept { return stats_; }
  // Heap bytes currently held (node pool + probe table + doorkeeper +
  // stored plan payloads) — the capacity bench's bytes/session input. An
  // idle session pays only the 16-slot starter table; the structures
  // grow lazily with actual use.
  std::size_t footprint_bytes() const noexcept;

  // Current generation; entries are only reachable under the generation
  // they were inserted at. Bump whenever planning context outside the
  // (state, fingerprint) key changes (MemoTiers::invalidate); stale
  // entries age out via LRU.
  std::uint64_t generation() const noexcept { return generation_; }
  void bump_generation() noexcept { ++generation_; }

  // Overload rung kStrictAdmission (core/overload.hpp): while frozen,
  // insert() admits nothing — every attempt is turned away like a
  // doorkeeper first-sighting (counted in door_rejects) — but existing
  // entries keep hitting. Degraded operation sheds the map-maintenance
  // cost of memoizing plans that may never recur, without giving up the
  // hits already earned.
  void set_admission_frozen(bool frozen) noexcept {
    admission_frozen_ = frozen;
  }
  bool admission_frozen() const noexcept { return admission_frozen_; }

  // Looks up (state_key, fingerprint) at the current generation. On a
  // hit the entry is refreshed to most-recently-used and returned (the
  // pointer is valid until the next mutating call); nullptr on a miss.
  // Counts hits/misses.
  const StoredPlan* find(std::uint64_t state_key, std::uint64_t fingerprint);

  // Inserts (state_key, fingerprint) at the current generation and
  // returns the slot to fill. The slot may hold a recycled evicted
  // plan — the caller overwrites every field. Inserting a key that is
  // already present overwrites it. With the doorkeeper enabled, a
  // first-sighted key is turned away with nullptr (the caller skips the
  // copy entirely; find() will miss until the key is inserted again).
  StoredPlan* insert(std::uint64_t state_key, std::uint64_t fingerprint);

  void clear();

 private:
  struct Key {
    std::uint64_t state;
    std::uint64_t fingerprint;
    std::uint64_t generation;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  // Storage is a flat open-addressing table (power-of-two, linear probe,
  // backshift deletion) over an index-linked node pool that doubles as
  // the intrusive LRU list — one cache-friendly probe run per lookup
  // instead of std::unordered_map's bucket-pointer chase plus a
  // std::list splice. Same keys, same LRU/doorkeeper/eviction order,
  // same stats; only where the bytes live changed.
  static constexpr std::uint32_t kNil = 0xffffffffu;
  struct Node {
    Key key;
    std::uint64_t hash = 0;  // KeyHash of `key` (probe/backshift reuse)
    StoredPlan plan;
    std::uint32_t prev = kNil;  // intrusive LRU links (node-pool indices)
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t idx) noexcept;
  void push_front(std::uint32_t idx) noexcept;
  // Probes for `key` with hash `h`; returns the node index or kNil, and
  // leaves the first empty slot of the run in `empty_slot` on a miss.
  std::uint32_t probe(const Key& key, std::uint64_t h,
                      std::uint32_t& empty_slot) const noexcept;
  void table_erase(std::uint32_t idx) noexcept;
  // Doubles the probe table when the next node would push the load
  // factor past 1/2 (lookup results are table-size independent, so lazy
  // growth changes where the bytes live, never what find/insert return).
  void maybe_grow_table();

  std::uint64_t config_digest_;
  std::size_t capacity_;
  bool admission_frozen_ = false;
  bool door_enabled_ = false;
  std::uint64_t generation_ = 0;
  PlanCacheStats stats_;
  std::vector<Node> nodes_;          // grows to capacity_, then recycles
  std::vector<std::uint32_t> table_; // node index + 1; 0 = empty slot
  std::uint32_t mask_ = 0;           // table_.size() - 1
  std::uint32_t head_ = kNil;        // most recently used
  std::uint32_t tail_ = kNil;        // least recently used
  // Doorkeeper sketch (allocated on first insert when enabled):
  // slot = tagged key hash.
  std::vector<std::uint64_t> door_;
};

class CanonicalOrderTable {
 public:
  explicit CanonicalOrderTable(std::size_t n_states);

  std::size_t n_states() const noexcept { return entries_.size(); }
  std::uint64_t generation() const noexcept { return generation_; }
  // Heap bytes behind the table (capacity bench).
  std::size_t footprint_bytes() const noexcept {
    return entries_.capacity() * sizeof(Entry) +
           order_pool_.footprint_bytes() + suffix_pool_.footprint_bytes() +
           stage_.capacity() * sizeof(ItemId) +
           built_.capacity() * sizeof(ItemId) +
           keys_.capacity() * sizeof(CanonKey);
  }

  // Marks every row stale; rows rebuild lazily on next access. The
  // invalidation hook for rows that change under a state key (a drift
  // changepoint, an overload rung change).
  void invalidate_all() noexcept { ++generation_; }

  struct Row {
    // The state's positive-probability support in canonical (Eq. 5)
    // order, and the Figure-3 tail sums over it (size order.size() + 1,
    // trailing 0 sentinel — directly consumable by solve_skp_sorted_into
    // when the candidate filter removed nothing).
    std::span<const ItemId> order;
    std::span<const double> suffix_prob;
    // Zobrist XOR over `order`: a candidate filter derives its
    // candidate-set fingerprint as support_fp ^ key(each skipped item)
    // — O(#skipped) instead of O(#candidates).
    std::uint64_t support_fp = 0;
  };

  // Returns the row for `state`, rebuilding it from (inst, positive)
  // when its generation tag is stale. `positive` must cover every item
  // with inst.P > 0 (zero-probability entries are permitted and
  // skipped); `inst` must be the exact instance this state plans with —
  // the row caches a P-dependent order, which is why a changed row must
  // invalidate_all() first.
  Row row(std::size_t state, InstanceView inst,
          std::span<const ItemId> positive);

 private:
  // Row storage lives in stable pools (util/arena.hpp): rebuilding one
  // state's row never moves another's, so a Row span handed out earlier
  // stays valid, and a rebuild whose support fits the old block reuses
  // it in place — per-state heap churn only when the support grows.
  struct Entry {
    ItemId* order = nullptr;       // block of `cap` ids in order_pool_
    double* suffix = nullptr;      // block of `cap` + 1 tail sums
    std::uint32_t size = 0;        // current row length
    std::uint32_t cap = 0;         // block capacity (ids)
    std::uint64_t fp = 0;          // Zobrist XOR over the order
    std::uint64_t generation = 0;  // 0 = never built (generations start at 1)
  };
  std::vector<Entry> entries_;
  StablePool<ItemId> order_pool_;
  StablePool<double> suffix_pool_;
  std::vector<ItemId> stage_;   // positive-support staging across rebuilds
  std::vector<ItemId> built_;   // canonical-order staging across rebuilds
  std::vector<CanonKey> keys_;  // sort scratch shared across rebuilds
  std::uint64_t generation_ = 1;
};

// Memoization context threaded through PrefetchEngine::plan*_cached. All
// pointers optional: a default PlanMemo makes the cached overloads behave
// exactly like their uncached counterparts. `state_key` must uniquely
// identify the planning inputs (P, r, v) within the respective cache's
// current generation — e.g. a Markov state id; when `canon` is set, it
// doubles as the row index and must be < canon->n_states(). `plans` and
// `selections` must be distinct PlanCache instances (their fingerprints
// hash different sets) built for the same engine config.
struct PlanMemo {
  PlanCache* plans = nullptr;       // completed-plan tier
  PlanCache* selections = nullptr;  // solver-selection tier
  CanonicalOrderTable* canon = nullptr;
  std::uint64_t state_key = 0;
};

// The plan, selection and canonical-order tiers of one simulation, each
// present only where it can hit (see make_memo_tiers). A default
// MemoTiers holds none and plans unmemoized.
class MemoTiers {
 public:
  // The PlanMemo of a request keyed by `state_key` (null where a tier is
  // absent).
  PlanMemo memo(std::uint64_t state_key) noexcept {
    return PlanMemo{plans_.get(), selections_.get(), canon_.get(),
                    state_key};
  }
  bool enabled() const noexcept { return selections_ != nullptr; }
  // Retires every stored plan and selection and every canonical row: the
  // rows behind the state keys changed (a drift changepoint, an overload
  // rung change, a client's churn).
  void invalidate() noexcept;
  // Overload rung kStrictAdmission: freezes or thaws admission on both
  // PlanCache tiers.
  void freeze(bool frozen) noexcept;
  PlanMemoStats stats() const noexcept;

 private:
  friend MemoTiers make_memo_tiers(bool, std::size_t, std::uint64_t, bool,
                                   SubArbitration, std::size_t);
  std::unique_ptr<PlanCache> plans_;
  std::unique_ptr<PlanCache> selections_;
  std::unique_ptr<CanonicalOrderTable> canon_;
};

// The memo-tier rule, shared by every driver. Nothing is built without
// `use_plan_cache`. Learned rows change with every observation, so they
// build no tier at all. LFU/DS sub-arbitration reads frequencies that
// move with every request, so it builds no plan tier (the selection
// tier still hits: the solve never reads frequencies). The canonical-
// order table keeps one row per state, so it needs raw oracle rows:
// `canonical_states` is the state count when they apply, 0 otherwise.
// Plan tiers admit through a doorkeeper; `capacity` bounds each tier and
// `engine_digest` pins them to the planning engine's config.
MemoTiers make_memo_tiers(bool use_plan_cache, std::size_t capacity,
                          std::uint64_t engine_digest, bool learned_rows,
                          SubArbitration sub, std::size_t canonical_states);

}  // namespace skp
