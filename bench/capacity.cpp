// Capacity bench: bytes per resident session, the denominator of the
// million-session goal.
//
// Counts live heap bytes through global operator new/delete and reports
// how much one session costs in three configurations:
//
//   CAP_NetsimIdle_shared   N NetsimSteppers of ONE spec group sharing a
//                           SharedCatalog (sizes, r, cycle script held
//                           once) — the bulk-hosting path skpd preload
//                           uses.
//   CAP_NetsimIdle_private  N steppers of N distinct spec groups, so
//                           every session owns a full grounding — the
//                           pre-catalog cost model, kept as the
//                           reduction baseline.
//   CAP_NetsimActive_shared the shared sessions after stepping, so the
//                           predictor/plan-cache growth shows up.
//   CAP_SkpdIdle            sessions resident in the SkpdSessionStore,
//                           store overhead included.
//
// Emits a google-benchmark-compatible JSON snapshot (counters only;
// cpu_time is zero and skipped by the comparer) so compare_bench.py can
// gate bytes_per_session growth against bench/BENCH_seed.json, and
// enforces the headline acceptance in-process: shared idle sessions must
// be at least 4x smaller than private ones, or the bench exits nonzero.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "sim/catalog.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/runtime.hpp"
#include "sim/skpd_session.hpp"
#include "util/parse_digits.hpp"

namespace {

// ---------------------------------------------------------------------
// Live-byte accounting. Every plain (default-aligned) new/delete in the
// process routes through a small size header, so `live()` is the exact
// number of requested-and-not-yet-freed bytes. Over-aligned allocations
// fall through to the library operators (uncounted but internally
// consistent), which is fine: both sides of every ratio here lose the
// same term.
std::atomic<std::uint64_t> g_live{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

std::uint64_t live() noexcept {
  return g_live.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  void* base = std::malloc(kHeader + size);
  if (base == nullptr) return nullptr;
  std::memcpy(base, &size, sizeof(size));
  g_live.fetch_add(size, std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
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

namespace {

struct Row {
  std::string name;
  double bytes_per_session = 0.0;
  double sessions_per_gb = 0.0;
};

Row make_row(std::string name, std::size_t sessions, std::uint64_t bytes) {
  Row row;
  const double per =
      static_cast<double>(bytes) / static_cast<double>(sessions);
  row.name = std::move(name) + "/" + std::to_string(sessions);
  row.bytes_per_session = per;
  row.sessions_per_gb = per > 0.0 ? (1024.0 * 1024.0 * 1024.0) / per : 0.0;
  return row;
}

// The measured group: learned-predictor netsim_des sessions, where the
// materialized cycle script (requests x 16-byte records) is the part a
// private grounding duplicates per session.
skp::SimSpec capacity_spec(std::uint64_t seed) {
  skp::SimSpec spec;
  spec.driver = skp::SimDriverKind::NetsimDes;
  spec.workload.kind = skp::SimWorkloadKind::Markov;
  spec.workload.n_items = 200;
  spec.predictor = skp::PredictorKind::Lz78;
  spec.cache_size = 10;
  spec.requests = 10'000;
  spec.seed = seed;
  return spec;
}

void write_json(std::ostream& out, const std::vector<Row>& rows) {
  out << "{\n \"context\": {\n"
      << "  \"executable\": \"capacity\",\n"
      << "  \"caches\": []\n },\n \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\n"
        << "   \"name\": \"" << r.name << "\",\n"
        << "   \"run_name\": \"" << r.name << "\",\n"
        << "   \"run_type\": \"iteration\",\n"
        << "   \"iterations\": 1,\n"
        << "   \"real_time\": 0.0,\n"
        << "   \"cpu_time\": 0.0,\n"
        << "   \"time_unit\": \"ns\",\n"
        << "   \"bytes_per_session\": " << r.bytes_per_session << ",\n"
        << "   \"sessions_per_gb\": " << r.sessions_per_gb << "\n"
        << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << " ]\n}\n";
}

// The most sessions one run measures: --full's count. A larger count is
// refused before any pool is reserved.
constexpr std::size_t kMaxSessions = 4096;

// A count flag's value, digits only (util/parse_digits.hpp): "-1" is
// refused instead of wrapping to 2^64 - 1. Exits 2 on anything else.
std::size_t parse_count(const char* flag, const char* text) {
  const std::optional<std::uint64_t> v = skp::parse_digits_u64(text);
  if (!v) {
    std::cerr << flag << " expects an unsigned integer, got '" << text
              << "'\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 256;
  std::size_t active_steps = 200;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--full") {
      sessions = kMaxSessions;
    } else if (a == "--sessions" && i + 1 < argc) {
      sessions = parse_count("--sessions", argv[++i]);
    } else if (a == "--steps" && i + 1 < argc) {
      active_steps = parse_count("--steps", argv[++i]);
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--full] [--sessions <n>] [--steps <n>]"
                   " [--json <path>]\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return 2;
    }
  }
  if (sessions == 0 || sessions > kMaxSessions) {
    std::cerr << "--sessions must be in [1, " << kMaxSessions << "]\n";
    return 2;
  }

  std::vector<Row> rows;
  const skp::SimSpec spec = capacity_spec(1);

  // Shared idle: the group's catalog is acquired once, outside the
  // measured window, exactly like skpd's bulk preload.
  double idle_shared = 0.0;
  {
    const std::shared_ptr<const skp::SharedCatalog> catalog =
        skp::SharedCatalog::acquire(spec);
    std::vector<std::unique_ptr<skp::NetsimStepper>> pool;
    pool.reserve(sessions);
    const std::uint64_t before = live();
    for (std::size_t i = 0; i < sessions; ++i) {
      pool.push_back(std::make_unique<skp::NetsimStepper>(spec, catalog));
    }
    rows.push_back(
        make_row("CAP_NetsimIdle_shared", sessions, live() - before));
    idle_shared = rows.back().bytes_per_session;

    // Active: run every session forward so predictor tries, plan-cache
    // tables, and replay state reach steady shape. Reported bytes are
    // TOTAL resident per active session (idle footprint included).
    for (auto& stepper : pool) {
      for (std::size_t s = 0; s < active_steps && !stepper->done(); ++s) {
        stepper->step();
      }
    }
    rows.push_back(
        make_row("CAP_NetsimActive_shared", sessions, live() - before));
  }

  // Private idle: one spec group per session (distinct seeds), so each
  // stepper's acquire() builds and owns a whole grounding — the
  // per-session cost model this refactor retired.
  double idle_private = 0.0;
  {
    std::vector<std::unique_ptr<skp::NetsimStepper>> pool;
    pool.reserve(sessions);
    const std::uint64_t before = live();
    for (std::size_t i = 0; i < sessions; ++i) {
      pool.push_back(std::make_unique<skp::NetsimStepper>(
          capacity_spec(1000 + static_cast<std::uint64_t>(i))));
    }
    rows.push_back(
        make_row("CAP_NetsimIdle_private", sessions, live() - before));
    idle_private = rows.back().bytes_per_session;
  }

  // Daemon-resident idle sessions: the store's map nodes and replay
  // buffers included, i.e. what one skpd process pays per preloaded
  // session.
  {
    const std::shared_ptr<const skp::SharedCatalog> catalog =
        skp::SharedCatalog::acquire(spec);
    skp::SkpdSessionStore store;
    const std::uint64_t before = live();
    for (std::size_t i = 0; i < sessions; ++i) {
      store.create(spec, catalog);
    }
    rows.push_back(make_row("CAP_SkpdIdle", sessions, live() - before));
  }

  for (const Row& r : rows) {
    std::fprintf(stderr, "%-32s %12.0f bytes/session %12.0f sessions/GB\n",
                 r.name.c_str(), r.bytes_per_session, r.sessions_per_gb);
  }
  const double reduction =
      idle_shared > 0.0 ? idle_private / idle_shared : 0.0;
  std::fprintf(stderr, "idle reduction (private/shared): %.1fx\n",
               reduction);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    write_json(out, rows);
  } else {
    write_json(std::cout, rows);
  }

  // Headline acceptance: sharing the catalog must shrink an idle
  // netsim_des session by at least 4x versus a private grounding.
  if (reduction < 4.0) {
    std::fprintf(stderr,
                 "FAIL: idle shared session is only %.1fx smaller than "
                 "private (need >= 4x)\n",
                 reduction);
    return 1;
  }
  return 0;
}
