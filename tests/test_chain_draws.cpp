// Fixed-seed digests of every chain draw and of every chain workload's
// materialized script. A chain's successor ids, the bit patterns of its
// probabilities and catalogs, the state of the drawing stream after the
// draw and a 200-step walk all feed one 64-bit digest per draw, so any
// change to how a chain is drawn, stored or walked shows up here as a
// digest mismatch naming the config.
//
// The expected values pin every draw bit for bit: a bare MarkovChain and
// a MarkovSource (whose probabilities are read back from the row its
// view_at scatters) must both reproduce them. Refresh (only for a
// deliberate change of the draws) with
//   test_chain_draws --gtest_also_run_disabled_tests
//                    --gtest_filter='*PrintDigestTables*'
//
// The suite also bounds what walk-only grounding allocates. Global
// operator new/delete count live heap bytes here (as bench/capacity
// does), so a test can assert the peak one call reaches.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "sim/catalog.hpp"
#include "sim/grounded.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"
#include "workload/markov_chain.hpp"
#include "workload/markov_source.hpp"

namespace {

// Live and peak heap bytes through plain (default-aligned) new/delete;
// each block carries its size in a header. Kept out of line so the
// compiler never inlines the header arithmetic into a delete of a known
// object (a -Warray-bounds false positive).
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

[[gnu::noinline]] void* counted_alloc(std::size_t size) noexcept {
  void* base = std::malloc(kHeader + size);
  if (base == nullptr) return nullptr;
  std::memcpy(base, &size, sizeof(size));
  const std::size_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(base) + kHeader;
}

[[gnu::noinline]] void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof(size));
  g_live.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace skp {
namespace {

struct Digest {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  void add(std::uint64_t x) { h = SplitMix64(h ^ x).next(); }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

// The transition probabilities of `state`'s successors: a chain's aligned
// list, or a source's row read at each successor.
std::vector<double> successor_probabilities(const MarkovChain& chain,
                                            std::size_t state) {
  const auto p = chain.probabilities(state);
  return {p.begin(), p.end()};
}

std::vector<double> successor_probabilities(MarkovSource& src,
                                            std::size_t state) {
  const auto row = src.view_at(state).P;
  std::vector<double> p;
  for (const ItemId t : src.successors(state)) {
    p.push_back(row[static_cast<std::size_t>(t)]);
  }
  return p;
}

// The chain a walk samples from.
const MarkovChain& chain_of(const MarkovChain& chain) { return chain; }
const MarkovChain& chain_of(const MarkovSource& src) { return src.chain(); }

// Catalogs, successor lists with their probabilities, the drawing
// stream's next output and a 200-step walk.
template <typename Chain>
std::uint64_t draw_digest(Chain& chain, const Rng& after_draw,
                          std::uint64_t walk_seed) {
  Digest d;
  const std::size_t n = chain.n_states();
  d.add(static_cast<std::uint64_t>(n));
  for (std::size_t s = 0; s < n; ++s) {
    d.add(chain.viewing_time(s));
    d.add(chain.retrieval_time(static_cast<ItemId>(s)));
    const auto succ = chain.successors(s);
    const std::vector<double> prob = successor_probabilities(chain, s);
    d.add(static_cast<std::uint64_t>(succ.size()));
    for (std::size_t k = 0; k < succ.size(); ++k) {
      d.add(static_cast<std::uint64_t>(succ[k]));
      d.add(prob[k]);
    }
  }
  Rng probe = after_draw;
  d.add(probe.next_u64());
  Rng walk(walk_seed);
  std::size_t state = 0;
  for (int i = 0; i < 200; ++i) {
    state = chain_of(chain).sample_from(state, walk);
    d.add(static_cast<std::uint64_t>(state));
  }
  return d.h;
}

struct DrawCase {
  std::size_t n;
  std::size_t lo, hi;
  // Seeds the drawing stream, Rng(1000 + stream), and the two walks,
  // 7000 + stream and 9000 + stream.
  std::size_t stream;
};

// n in {2, 3, 21, 100, 1000} x out-degree bounds {1:1, 4:4, 10:20,
// 1:n+3}. 10:20 exceeds the pool at n = 2 and 3; 1:n+3 can draw past it
// at every n. Streams step by two, so each case keeps the seeds its
// digests were first pinned with.
std::vector<DrawCase> draw_cases() {
  std::vector<DrawCase> cases;
  for (const std::size_t n : {2, 3, 21, 100, 1000}) {
    const std::pair<std::size_t, std::size_t> bounds[] = {
        {1, 1}, {4, 4}, {10, 20}, {1, n + 3}};
    for (const auto& [lo, hi] : bounds) {
      cases.push_back({n, lo, hi, 2 * cases.size()});
    }
  }
  return cases;
}

MarkovSourceConfig config_of(const DrawCase& c) {
  MarkovSourceConfig cfg;
  cfg.n_states = c.n;
  cfg.out_degree_lo = c.lo;
  cfg.out_degree_hi = c.hi;
  return cfg;
}

// Digest of the first draw and of a second redraw_transitions continuing
// on the same stream.
template <typename Chain>
std::pair<std::uint64_t, std::uint64_t> draw_digests(const DrawCase& c) {
  const MarkovSourceConfig cfg = config_of(c);
  Rng rng(1000 + c.stream);
  Chain chain(cfg, rng);
  const std::uint64_t first = draw_digest(chain, rng, 7000 + c.stream);
  chain.redraw_transitions(cfg, rng);
  const std::uint64_t second = draw_digest(chain, rng, 9000 + c.stream);
  return {first, second};
}

constexpr std::pair<std::uint64_t, std::uint64_t> kDrawDigests[] = {
    // n = 2: 1:1, 4:4, 10:20, 1:5.
    {0xa8cb8ef3e807db02ULL, 0xd7c470c026abcb87ULL},
    {0x4b9d5e10fb8c0c64ULL, 0xb4f87fe027f758daULL},
    {0xc561f54a08f82558ULL, 0xbb600df29e1267e3ULL},
    {0xd651ee711ad62175ULL, 0x5640e9a88ea321fdULL},
    // n = 3: 1:1, 4:4, 10:20, 1:6.
    {0xb8e2bec5f8ce01e5ULL, 0xe0e050d75f182134ULL},
    {0x817942cc207738c0ULL, 0xe5eb3d8f7fcc8e28ULL},
    {0x710ee9dc2e1ba2aeULL, 0xd9a5d24c644293b8ULL},
    {0x497bf53984390d21ULL, 0x4de9cde93dc31940ULL},
    // n = 21: 1:1, 4:4, 10:20, 1:24.
    {0x5f5be8e77c4b041cULL, 0xb1cbf33d74e8f839ULL},
    {0xf5fdb75d2e63ee39ULL, 0x8c1df0b3ccd3c235ULL},
    {0x40fdc4ef41eb4e1fULL, 0xf7d90a0559544e3cULL},
    {0x28c9b7e7b92f16a3ULL, 0xc0290d9d59b52e4dULL},
    // n = 100: 1:1, 4:4, 10:20, 1:103.
    {0xd21871992f03fb4fULL, 0x1426616cc34d8421ULL},
    {0x39a3473a96e5aafcULL, 0x494ec268b5b2b344ULL},
    {0x8d8e101b2fc6abedULL, 0x24a1b58e86ad9a10ULL},
    {0x394d967187b96a58ULL, 0xd7ebfbd3f5ab97e3ULL},
    // n = 1000: 1:1, 4:4, 10:20, 1:1003.
    {0x9177c31b50d7a561ULL, 0x2e7f8f34fafb752cULL},
    {0xbcfb4e9aaea2b94fULL, 0xb09ef3ab91855865ULL},
    {0xabc1577433493aaaULL, 0x9436d88e096d9473ULL},
    {0xa6dd83ff84acb652ULL, 0x98f7c1b63afd2a7dULL},
};

struct WorkloadCase {
  const char* name;
  SimWorkloadKind kind;
  std::size_t n;
};

constexpr WorkloadCase kWorkloadCases[] = {
    {"markov", SimWorkloadKind::Markov, 40},
    {"markov_n2", SimWorkloadKind::Markov, 2},
    {"markov_drift", SimWorkloadKind::MarkovDrift, 40},
    {"zipf", SimWorkloadKind::Zipf, 40},
    {"adversarial", SimWorkloadKind::Adversarial, 40},
    {"trace_text", SimWorkloadKind::TraceText, 40},
    {"iid", SimWorkloadKind::Iid, 40},
};

// Cycles, retrieval times and both streams' next outputs.
std::uint64_t workload_digest(std::size_t index, const WorkloadCase& c) {
  SimWorkload w;
  w.kind = c.kind;
  w.n_items = c.n;
  w.out_degree_lo = 3;
  w.out_degree_hi = 9;
  w.drift_period = 60;
  w.adv_hot_set = 6;
  w.adv_escape = 0.1;
  Rng root(500 + index);
  Rng build = root.split(1);
  Rng walk = root.split(2);
  const MaterializedWorkload m = materialize_workload(w, 400, build, walk);
  Digest d;
  d.add(static_cast<std::uint64_t>(m.n_items));
  d.add(static_cast<std::uint64_t>(m.cycles.size()));
  for (const TraceRecord& rec : m.cycles) {
    d.add(static_cast<std::uint64_t>(rec.item));
    d.add(rec.viewing_time);
  }
  d.add(static_cast<std::uint64_t>(m.retrieval_times.size()));
  for (const double r : m.retrieval_times) d.add(r);
  d.add(build.next_u64());
  d.add(walk.next_u64());
  return d.h;
}

constexpr std::uint64_t kWorkloadDigests[] = {
    0x190b4bc55220bc65ULL,  // markov
    0xe3ee3326c19e5829ULL,  // markov_n2
    0x530958ae7c54b872ULL,  // markov_drift
    0x4f53553d33444691ULL,  // zipf
    0x0a0577a9620a77d0ULL,  // adversarial
    0x9f30a320961b4673ULL,  // trace_text
    0xfccacb3e5058e254ULL,  // iid
};

template <typename Chain>
void expect_pinned_draws() {
  const std::vector<DrawCase> cases = draw_cases();
  ASSERT_EQ(cases.size(), std::size(kDrawDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const DrawCase& c = cases[i];
    const auto [first, second] = draw_digests<Chain>(c);
    EXPECT_EQ(first, kDrawDigests[i].first)
        << "n=" << c.n << " degree " << c.lo << ":" << c.hi;
    EXPECT_EQ(second, kDrawDigests[i].second)
        << "redraw: n=" << c.n << " degree " << c.lo << ":" << c.hi;
  }
}

TEST(ChainDraws, ChainDrawsMatchPinnedDigests) {
  expect_pinned_draws<MarkovChain>();
}

TEST(ChainDraws, SourceDrawsMatchPinnedDigests) {
  expect_pinned_draws<MarkovSource>();
}

TEST(ChainDraws, MaterializedWorkloadsMatchPinnedDigests) {
  ASSERT_EQ(std::size(kWorkloadCases), std::size(kWorkloadDigests));
  for (std::size_t i = 0; i < std::size(kWorkloadCases); ++i) {
    EXPECT_EQ(workload_digest(i, kWorkloadCases[i]), kWorkloadDigests[i])
        << kWorkloadCases[i].name;
  }
}

// materialize_workload walks the bare chain; the reference walks a
// MarkovSource drawn from the same streams with step(), redrawing it at
// the same changepoints.
TEST(ChainDraws, MaterializedCyclesWalkASourceDrawnFromTheSameStreams) {
  for (const SimWorkloadKind kind :
       {SimWorkloadKind::Markov, SimWorkloadKind::MarkovDrift,
        SimWorkloadKind::Zipf, SimWorkloadKind::Adversarial,
        SimWorkloadKind::TraceText}) {
    SimWorkload w;
    w.kind = kind;
    w.n_items = 30;
    w.out_degree_lo = 2;
    w.out_degree_hi = 7;
    w.drift_period = 50;
    w.adv_hot_set = 5;
    constexpr std::size_t kRequests = 300;
    Rng build(31), walk(32);
    const MaterializedWorkload m =
        materialize_workload(w, kRequests, build, walk);

    Rng ref_build(31), ref_walk(32);
    MarkovSource src = kind == SimWorkloadKind::TraceText
                           ? MarkovSource(to_markov_config(w), ref_build)
                           : MarkovSource(make_workload_chain(w, ref_build));
    Rng drift = ref_build.split(kPrefetchCacheDriftSalt);
    ASSERT_EQ(m.cycles.size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (kind == SimWorkloadKind::MarkovDrift && i != 0 &&
          i % w.drift_period == 0) {
        src.redraw_transitions(to_markov_config(w), drift);
      }
      const double v = src.viewing_time(src.current_state());
      const auto item = static_cast<ItemId>(src.step(ref_walk));
      ASSERT_EQ(m.cycles[i].item, item) << to_string(kind) << " cycle " << i;
      ASSERT_EQ(m.cycles[i].viewing_time, v)
          << to_string(kind) << " cycle " << i;
    }
    const auto r = src.retrieval_times();
    EXPECT_EQ(m.retrieval_times, std::vector<double>(r.begin(), r.end()))
        << to_string(kind);
  }
}

// A spec grounds without any n x n term: at n = 20000 a dense row per
// state would be 3.2 GB of doubles. A learned catalog keeps the cycle
// script walked from the chain, an oracle catalog the chain itself.
TEST(ChainDraws, WalkOnlyGroundingHasNoQuadraticTerm) {
  constexpr std::size_t n = 20000;
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.n_items = n;
  spec.requests = 1000;
  const std::size_t bound = 64 * n * spec.workload.out_degree_hi;

  Rng build(3);
  const MarkovChain chain(to_markov_config(spec.workload), build);
  EXPECT_LT(chain.footprint_bytes(), bound);

  for (const PredictorKind predictor :
       {PredictorKind::Markov1, PredictorKind::Oracle}) {
    spec.predictor = predictor;
    // Peak heap reached while grounding, over what was live before.
    const std::size_t before = g_live.load();
    g_peak.store(before);
    const std::shared_ptr<const SharedCatalog> catalog =
        SharedCatalog::build(spec);
    EXPECT_LT(g_peak.load() - before, bound) << to_string(predictor);
    if (catalog->oracle()) {
      EXPECT_EQ(catalog->chain().n_states(), n);
    } else {
      EXPECT_EQ(catalog->materialized().cycles.size(), spec.requests);
    }
  }
}

TEST(ChainDraws, OutDegreeBoundMustFitTheSignedDraw) {
  MarkovSourceConfig cfg;
  cfg.n_states = 50;
  cfg.out_degree_lo = 2;
  Rng rng(1);
  constexpr auto kMax = static_cast<std::size_t>(
      std::numeric_limits<std::int64_t>::max());
  for (const std::size_t hi :
       {kMax + 1, std::numeric_limits<std::size_t>::max()}) {
    cfg.out_degree_hi = hi;
    EXPECT_THROW(MarkovChain(cfg, rng), std::invalid_argument) << hi;
  }
  // The largest bound the draw can take is still valid; the degree is
  // capped at the pool as always.
  cfg.out_degree_hi = kMax;
  const MarkovChain chain(cfg, rng);
  for (std::size_t s = 0; s < chain.n_states(); ++s) {
    EXPECT_GE(chain.successors(s).size(), 2u);
    EXPECT_LE(chain.successors(s).size(), 49u);
  }
}

TEST(ChainDraws, DISABLED_PrintDigestTables) {
  for (const DrawCase& c : draw_cases()) {
    const auto [first, second] = draw_digests<MarkovChain>(c);
    std::printf("    {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n", first,
                second);
  }
  for (std::size_t i = 0; i < std::size(kWorkloadCases); ++i) {
    std::printf("    0x%016" PRIx64 "ULL,  // %s\n",
                workload_digest(i, kWorkloadCases[i]),
                kWorkloadCases[i].name);
  }
}

}  // namespace
}  // namespace skp
