#include "core/plan_cache.hpp"

#include <algorithm>

#include "cache/zobrist.hpp"
#include "core/skp_solver.hpp"
#include "util/rng.hpp"

namespace skp {

void PlanCacheStats::merge(const PlanCacheStats& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  inserts += other.inserts;
  evictions += other.evictions;
  door_rejects += other.door_rejects;
}

std::size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  // SplitMix64 finalization over the XOR-folded words: the fingerprint
  // is already uniform, but state/generation are small counters — one
  // mixer pass spreads them across the table.
  SplitMix64 sm(k.state ^ (k.fingerprint * 0x9e3779b97f4a7c15ULL) ^
                (k.generation << 32));
  return static_cast<std::size_t>(sm.next());
}

namespace {
// Doorkeeper sketch size: power of two, sized so phase-local key sets
// (hundreds to a few thousand live keys) rarely collide.
constexpr std::size_t kDoorSlots = 4096;

// Probe-table load factor <= 0.5: the table holds 2x the entry capacity
// (rounded up to a power of two), keeping linear-probe runs short.
std::size_t table_slots_for(std::size_t capacity) {
  std::size_t slots = 16;
  while (slots < capacity * 2) slots <<= 1;
  return slots;
}
}  // namespace

PlanCache::PlanCache(std::uint64_t config_digest, std::size_t capacity,
                     bool doorkeeper)
    : config_digest_(config_digest),
      capacity_(capacity),
      door_enabled_(doorkeeper) {
  SKP_REQUIRE(capacity_ >= 1, "PlanCache capacity must be >= 1");
  SKP_REQUIRE(capacity_ < kNil, "PlanCache capacity must fit 32-bit links");
  // Lazy footprint: a fresh cache owns one 16-slot starter table and
  // nothing else. The node pool grows geometrically with real inserts,
  // the probe table doubles with it (maybe_grow_table), and the
  // doorkeeper sketch materializes on the first admission decision — so
  // the ~100k idle daemon sessions of the capacity work pay bytes for
  // plans they actually store, not for kDefaultCapacity. Lookup results
  // are table-size independent: same keys, same LRU/doorkeeper/eviction
  // order, same stats at every growth point.
  table_.assign(16, 0);
  mask_ = static_cast<std::uint32_t>(table_.size() - 1);
}

void PlanCache::maybe_grow_table() {
  if ((nodes_.size() + 1) * 2 <= table_.size()) return;
  // The pool recycles nodes once it reaches capacity_, so the table
  // never needs to outgrow the old eager allocation.
  const std::size_t target =
      std::min(table_.size() * 2, table_slots_for(capacity_));
  if (target <= table_.size()) return;
  std::vector<std::uint32_t> old = std::move(table_);
  table_.assign(target, 0);
  mask_ = static_cast<std::uint32_t>(table_.size() - 1);
  for (std::uint32_t idx = 0; idx < nodes_.size(); ++idx) {
    std::uint32_t slot =
        static_cast<std::uint32_t>(nodes_[idx].hash) & mask_;
    while (table_[slot] != 0) slot = (slot + 1) & mask_;
    table_[slot] = idx + 1;
  }
}

std::size_t PlanCache::footprint_bytes() const noexcept {
  std::size_t total = nodes_.capacity() * sizeof(Node) +
                      table_.capacity() * sizeof(std::uint32_t) +
                      door_.capacity() * sizeof(std::uint64_t);
  for (const Node& n : nodes_) {
    total += n.plan.fetch.capacity() * sizeof(ItemId) +
             n.plan.evict.capacity() * sizeof(ItemId);
  }
  return total;
}

void PlanCache::unlink(std::uint32_t idx) noexcept {
  Node& n = nodes_[idx];
  if (n.prev != kNil) nodes_[n.prev].next = n.next; else head_ = n.next;
  if (n.next != kNil) nodes_[n.next].prev = n.prev; else tail_ = n.prev;
}

void PlanCache::push_front(std::uint32_t idx) noexcept {
  Node& n = nodes_[idx];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) nodes_[head_].prev = idx;
  head_ = idx;
  if (tail_ == kNil) tail_ = idx;
}

std::uint32_t PlanCache::probe(const Key& key, std::uint64_t h,
                               std::uint32_t& empty_slot) const noexcept {
  std::uint32_t slot = static_cast<std::uint32_t>(h) & mask_;
  while (table_[slot] != 0) {
    const std::uint32_t idx = table_[slot] - 1;
    const Node& n = nodes_[idx];
    if (n.hash == h && n.key == key) return idx;
    slot = (slot + 1) & mask_;
  }
  empty_slot = slot;
  return kNil;
}

void PlanCache::table_erase(std::uint32_t idx) noexcept {
  // Locate the victim's slot, then close the probe run with standard
  // backshift deletion: each follower whose home position lies at or
  // before the hole (cyclically) slides back into it.
  std::uint32_t slot = static_cast<std::uint32_t>(nodes_[idx].hash) & mask_;
  while (table_[slot] != idx + 1) slot = (slot + 1) & mask_;
  std::uint32_t hole = slot;
  std::uint32_t next = (hole + 1) & mask_;
  while (table_[next] != 0) {
    const std::uint32_t home =
        static_cast<std::uint32_t>(nodes_[table_[next] - 1].hash) & mask_;
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      table_[hole] = table_[next];
      hole = next;
    }
    next = (next + 1) & mask_;
  }
  table_[hole] = 0;
}

const StoredPlan* PlanCache::find(std::uint64_t state_key,
                                  std::uint64_t fingerprint) {
  const Key key{state_key, fingerprint, generation_};
  std::uint32_t empty_slot = 0;
  const std::uint32_t idx = probe(key, KeyHash{}(key), empty_slot);
  if (idx == kNil) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  if (head_ != idx) {  // refresh to MRU
    unlink(idx);
    push_front(idx);
  }
  return &nodes_[idx].plan;
}

StoredPlan* PlanCache::insert(std::uint64_t state_key,
                              std::uint64_t fingerprint) {
  if (admission_frozen_) {
    ++stats_.door_rejects;
    return nullptr;
  }
  const Key key{state_key, fingerprint, generation_};
  const std::uint64_t h = KeyHash{}(key);
  if (door_enabled_) {
    if (door_.empty()) door_.assign(kDoorSlots, 0);
    // Admission: the first sighting of a key parks its tag in the sketch
    // and is not stored; a matching tag means the key recurred and has
    // earned a real slot. Index with the raw hash but tag with hash|1
    // (0 marks empty slots) so forcing the tag's low bit does not halve
    // the addressable slots.
    const std::uint64_t tag = h | 1;
    std::uint64_t& slot = door_[h & (door_.size() - 1)];
    if (slot != tag) {
      slot = tag;
      ++stats_.door_rejects;
      return nullptr;
    }
  }
  ++stats_.inserts;
  std::uint32_t empty_slot = 0;
  if (const std::uint32_t idx = probe(key, h, empty_slot); idx != kNil) {
    if (head_ != idx) {
      unlink(idx);
      push_front(idx);
    }
    return &nodes_[idx].plan;  // overwrite in place
  }
  if (nodes_.size() >= capacity_) {
    // Recycle the LRU node: unlink its key, keep its plan's vector
    // capacity for the incoming entry.
    const std::uint32_t victim = tail_;
    table_erase(victim);
    ++stats_.evictions;
    unlink(victim);
    push_front(victim);
    nodes_[victim].key = key;
    nodes_[victim].hash = h;
    // Backshift may have reshaped the run; re-probe for the slot.
    probe(key, h, empty_slot);
    table_[empty_slot] = victim + 1;
    return &nodes_[victim].plan;
  }
  // Admitting a brand-new node: grow the probe table first if this node
  // would push the load factor past 1/2, then re-locate the run's empty
  // slot in the (possibly reshaped) table.
  maybe_grow_table();
  probe(key, h, empty_slot);
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[idx].key = key;
  nodes_[idx].hash = h;
  push_front(idx);
  table_[empty_slot] = idx + 1;
  return &nodes_[idx].plan;
}

void PlanCache::clear() {
  nodes_.clear();
  std::fill(table_.begin(), table_.end(), 0);
  head_ = tail_ = kNil;
  if (!door_.empty()) std::fill(door_.begin(), door_.end(), 0);
}

void MemoTiers::invalidate() noexcept {
  if (plans_) plans_->bump_generation();
  if (selections_) selections_->bump_generation();
  if (canon_) canon_->invalidate_all();
}

void MemoTiers::freeze(bool frozen) noexcept {
  if (plans_) plans_->set_admission_frozen(frozen);
  if (selections_) selections_->set_admission_frozen(frozen);
}

PlanMemoStats MemoTiers::stats() const noexcept {
  PlanMemoStats stats;
  if (plans_) stats.plans = plans_->stats();
  if (selections_) stats.selections = selections_->stats();
  return stats;
}

MemoTiers make_memo_tiers(bool use_plan_cache, std::size_t capacity,
                          std::uint64_t engine_digest, bool learned_rows,
                          SubArbitration sub, std::size_t canonical_states) {
  MemoTiers tiers;
  if (!use_plan_cache || learned_rows) return tiers;
  if (sub == SubArbitration::None) {
    tiers.plans_ = std::make_unique<PlanCache>(engine_digest, capacity,
                                               /*doorkeeper=*/true);
  }
  tiers.selections_ = std::make_unique<PlanCache>(engine_digest, capacity);
  if (canonical_states != 0) {
    tiers.canon_ = std::make_unique<CanonicalOrderTable>(canonical_states);
  }
  return tiers;
}

CanonicalOrderTable::CanonicalOrderTable(std::size_t n_states)
    : entries_(n_states) {
  SKP_REQUIRE(n_states >= 1, "CanonicalOrderTable over empty state space");
}

CanonicalOrderTable::Row CanonicalOrderTable::row(
    std::size_t state, InstanceView inst, std::span<const ItemId> positive) {
  SKP_REQUIRE(state < entries_.size(),
              "state " << state << " outside table of " << entries_.size());
  Entry& e = entries_[state];
  if (e.generation != generation_) {
    // Rebuild: canonical order of the positive support, then the
    // Figure-3 tail sums sum_{j..m-1} P (with the P_{m+1} = 0 sentinel)
    // that the SKP search's PaperTail rule and bound setup consume.
    stage_.clear();
    for (const ItemId id : positive) {
      if (inst.P[InstanceView::idx(id)] > 0.0) stage_.push_back(id);
    }
    canonical_order_into(inst, stage_, keys_, built_);
    const std::size_t m = built_.size();
    if (e.suffix == nullptr || m > e.cap) {
      // New or outgrown row: take fresh stable blocks (the old block, if
      // any, stays put — spans into other rows never move).
      e.order = order_pool_.alloc(m);
      e.suffix = suffix_pool_.alloc(m + 1);
      e.cap = static_cast<std::uint32_t>(m);
    }
    e.size = static_cast<std::uint32_t>(m);
    std::copy(built_.begin(), built_.end(), e.order);
    tail_sums_into(inst.P, std::span<const ItemId>(e.order, m),
                   std::span<double>(e.suffix, m + 1));
    e.fp = 0;
    for (std::size_t j = m; j-- > 0;) e.fp ^= zobrist_item_key(e.order[j]);
    e.generation = generation_;
  }
  return Row{std::span<const ItemId>(e.order, e.size),
             std::span<const double>(e.suffix, e.size + 1), e.fp};
}

}  // namespace skp
