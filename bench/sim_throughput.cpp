// Sim-throughput microbenchmarks (google-benchmark) for the CI perf
// snapshot.
//
// One reduced Figure-7 point per policy: a complete prefetch_cache sim
// (paper-default 100-state source, cache size 20) measured end to end.
// `items_per_second` in the JSON output is requests/second — the number
// the ROADMAP "Perf baseline" item asks to track next to the solver
// micro-benches — and the `solver_nodes` counter is deterministic, which
// gives bench/compare_bench.py a machine-independent regression signal on
// top of the timing. Memoizable rows additionally report their
// `plan_hit_rate` (also deterministic), which compare_bench.py gates
// against absolute regressions, and carry a _NoPlanCache twin so the
// snapshot records the on/off delta.
//
// On top of the per-policy points, one `BM_Driver_<name>` row per entry
// in the unified runtime's driver registry (sim/runtime.hpp) tracks
// requests/sec of every simulator surface — including the netsim DES
// path the per-policy rows never touched — so a regression in any driver
// shows up in the snapshot regardless of which figure exercises it. The
// BM_Predict_* rows at the end time the predictor layer on its own.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "predict/predictor.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"

namespace {

using namespace skp;

constexpr std::size_t kRequests = 2'000;

void run_point(benchmark::State& state, PrefetchPolicy policy,
               SubArbitration sub, bool use_plan_cache = true,
               std::size_t cache_size = 20) {
  SimSpec spec;  // prefetch_cache driver, paper-default Markov source
  spec.cache_size = cache_size;
  spec.policy = policy;
  spec.sub = sub;
  spec.requests = kRequests;
  spec.seed = 1;
  spec.use_plan_cache = use_plan_cache;
  std::uint64_t nodes = 0;
  PlanMemoStats pc;
  for (auto _ : state) {
    const SimResult res = run_sim(spec);
    nodes = res.metrics.solver_nodes;
    pc = res.plan_cache;
    benchmark::DoNotOptimize(res.metrics.hits);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRequests));
  state.counters["solver_nodes"] = static_cast<double>(nodes);
  // Each tier's rate is emitted only when that tier was consulted at all:
  // under LFU/DS sub-arbitration the plans tier is structurally dead
  // (freqs move every request) and is no longer instantiated, so those
  // rows carry only select_hit_rate.
  if (use_plan_cache && pc.plans.lookups() > 0) {
    state.counters["plan_hit_rate"] = pc.plans.hit_rate();
  }
  if (use_plan_cache && pc.selections.lookups() > 0) {
    state.counters["select_hit_rate"] = pc.selections.hit_rate();
  }
}

void BM_Fig7Point_NoPr(benchmark::State& state) {
  run_point(state, PrefetchPolicy::None, SubArbitration::None);
}
BENCHMARK(BM_Fig7Point_NoPr);

void BM_Fig7Point_KpPr(benchmark::State& state) {
  run_point(state, PrefetchPolicy::KP, SubArbitration::None);
}
BENCHMARK(BM_Fig7Point_KpPr);

void BM_Fig7Point_SkpPr(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::None);
}
BENCHMARK(BM_Fig7Point_SkpPr);

// On/off twins: the same point with memoization disabled, so the
// committed snapshot records the plan-cache delta on this machine.
void BM_Fig7Point_KpPr_NoPlanCache(benchmark::State& state) {
  run_point(state, PrefetchPolicy::KP, SubArbitration::None, false);
}
BENCHMARK(BM_Fig7Point_KpPr_NoPlanCache);

void BM_Fig7Point_SkpPr_NoPlanCache(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::None, false);
}
BENCHMARK(BM_Fig7Point_SkpPr_NoPlanCache);

// Paper-scale points (the Fig.-7 per-point request count): recurring
// (state, cache) pairs are warm here, so this pair records the
// steady-state plan-cache speedup and hit rate the reduced points
// understate.
void run_full_point(benchmark::State& state, bool use_plan_cache) {
  SimSpec spec;
  spec.cache_size = 20;
  spec.policy = PrefetchPolicy::SKP;
  spec.requests = 50'000;
  spec.seed = 1;
  spec.use_plan_cache = use_plan_cache;
  PlanMemoStats pc;
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const SimResult res = run_sim(spec);
    nodes = res.metrics.solver_nodes;
    pc = res.plan_cache;
    benchmark::DoNotOptimize(res.metrics.hits);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * spec.requests));
  state.counters["solver_nodes"] = static_cast<double>(nodes);
  if (use_plan_cache) {
    state.counters["plan_hit_rate"] = pc.plans.hit_rate();
    state.counters["select_hit_rate"] = pc.selections.hit_rate();
  }
}

void BM_Fig7FullPoint_SkpPr(benchmark::State& state) {
  run_full_point(state, true);
}
BENCHMARK(BM_Fig7FullPoint_SkpPr);

void BM_Fig7FullPoint_SkpPr_NoPlanCache(benchmark::State& state) {
  run_full_point(state, false);
}
BENCHMARK(BM_Fig7FullPoint_SkpPr_NoPlanCache);

// The sub-arbitrated rows carry the _SelOnly suffix since the plans tier
// stopped being instantiated under LFU/DS (frequency books move every
// request, so that tier could never hit and is now skipped wholesale) —
// these rows report select_hit_rate only. The rename retires the old
// rows' plan_hit_rate history instead of tripping the disappearance gate
// in compare_bench.py.
void BM_Fig7Point_SkpPrLfu_SelOnly(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::LFU);
}
BENCHMARK(BM_Fig7Point_SkpPrLfu_SelOnly);

void BM_Fig7Point_SkpPrDs_SelOnly(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::DS);
}
BENCHMARK(BM_Fig7Point_SkpPrDs_SelOnly);

// The smallest and largest resident sets Figure 7 picks LFU/DS victims
// from: cache 10 and 75 of 100 items, a few victims out of each.
void BM_Fig7Point_SkpPrLfu_C10(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::LFU, true, 10);
}
BENCHMARK(BM_Fig7Point_SkpPrLfu_C10);

void BM_Fig7Point_SkpPrDs_C10(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::DS, true, 10);
}
BENCHMARK(BM_Fig7Point_SkpPrDs_C10);

void BM_Fig7Point_SkpPrLfu_C75(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::LFU, true, 75);
}
BENCHMARK(BM_Fig7Point_SkpPrLfu_C75);

void BM_Fig7Point_SkpPrDs_C75(benchmark::State& state) {
  run_point(state, PrefetchPolicy::SKP, SubArbitration::DS, true, 75);
}
BENCHMARK(BM_Fig7Point_SkpPrDs_C75);

// One representative SimSpec per registered driver, dispatched through
// run_sim. Reduced scale (kRequests cycles each); the scenario/netsim
// points use the scenario-matrix shape (24 items, cache 6, learned or
// oracle prediction as each pipeline requires).
SimSpec driver_spec(SimDriverKind kind) {
  SimSpec spec;
  spec.driver = kind;
  spec.requests = kRequests;
  spec.seed = 1;
  switch (kind) {
    case SimDriverKind::PrefetchOnly:
      spec.workload.kind = SimWorkloadKind::Iid;
      spec.workload.n_items = 10;
      break;
    case SimDriverKind::PrefetchCache:
      spec.cache_size = 20;  // paper-default Markov source
      break;
    case SimDriverKind::TraceReplay:
      spec.predictor = PredictorKind::Markov1;
      spec.cache_size = 20;
      break;
    case SimDriverKind::NetsimDes:
      spec.cache_size = 20;  // oracle rows over a unit link: r_i = size_i
      break;
    case SimDriverKind::Scenario:
      spec.workload.n_items = 24;
      spec.workload.out_degree_lo = 4;
      spec.workload.out_degree_hi = 8;
      spec.workload.v_lo = 10.0;
      spec.workload.v_hi = 60.0;
      spec.predictor = PredictorKind::Markov1;
      spec.predictor_min_prob = 0.02;
      spec.predictor_warmup = 64;
      spec.cache_size = 6;
      break;
    case SimDriverKind::MultiClientDes:
      // Four oracle chains contending for one shared link; `requests`
      // counts per client, so the point still serves kRequests cycles.
      spec.multi_client.clients = 4;
      spec.requests = kRequests / 4;
      spec.cache_size = 10;
      break;
    case SimDriverKind::SkpdLoopback:
      // Same decision path as netsim_des, served over a socket; the
      // registry walk below skips it (needs a running skpd daemon).
      spec.cache_size = 20;
      break;
  }
  return spec;
}

void run_driver_point(benchmark::State& state, const SimSpec& spec) {
  std::uint64_t nodes = 0;
  PlanMemoStats pc;
  for (auto _ : state) {
    const SimResult res = run_sim(spec);
    nodes = res.metrics.solver_nodes;
    pc = res.plan_cache;
    benchmark::DoNotOptimize(res.metrics.hits);
  }
  // multi_client serves `requests` cycles on EACH client per run.
  const std::size_t per_run =
      spec.requests * (spec.driver == SimDriverKind::MultiClientDes
                           ? spec.multi_client.clients
                           : 1);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * per_run));
  state.counters["solver_nodes"] = static_cast<double>(nodes);
  if (pc.plans.lookups() > 0) {
    state.counters["plan_hit_rate"] = pc.plans.hit_rate();
  }
  if (pc.selections.lookups() > 0) {
    state.counters["select_hit_rate"] = pc.selections.hit_rate();
  }
}

// Registered at static-init time by walking the registry, so a driver
// added to the runtime is tracked in the snapshot without touching this
// file (benchmark names follow the registry's stable tokens).
const int kRegisterDriverPoints = [] {
  for (const SimDriver& driver : driver_registry()) {
    // skpd_loopback needs a daemon process (SKPD_BIN/SKPD_ADDR); the
    // in-process snapshot cannot time it meaningfully anyway — its cost
    // is the wire, not the decision path it shares with netsim_des.
    if (driver.kind == SimDriverKind::SkpdLoopback) continue;
    const SimSpec spec = driver_spec(driver.kind);
    benchmark::RegisterBenchmark(
        (std::string("BM_Driver_") + driver.name).c_str(),
        [spec](benchmark::State& state) { run_driver_point(state, spec); });
  }
  return 0;
}();

// The other side of that trade: the zero-Pr victim walk visits the cache's
// presence words in id order, so its cost grows with the catalog, not the
// cache. This lz78 netsim_des point spreads 10 slots over 313 words.
void BM_Driver_netsim_des_Lz78_N20000(benchmark::State& state) {
  SimSpec spec = driver_spec(SimDriverKind::NetsimDes);
  spec.workload.n_items = 20'000;
  spec.predictor = PredictorKind::Lz78;
  spec.cache_size = 10;
  run_driver_point(state, spec);
}
BENCHMARK(BM_Driver_netsim_des_Lz78_N20000);

// The learned-predictor variant exercises the filtered predictor row
// (predict_filtered_into) and the support-hinted candidate filter, the
// other per-request hot path.
void BM_Fig7Point_SkpMarkov1(benchmark::State& state) {
  SimSpec spec;
  spec.cache_size = 20;
  spec.policy = PrefetchPolicy::SKP;
  spec.predictor = PredictorKind::Markov1;
  spec.requests = kRequests;
  spec.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sim(spec).metrics.hits);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRequests));
}
BENCHMARK(BM_Fig7Point_SkpMarkov1);

// ---- Predictor layer ----------------------------------------------------
// Planning rows along a replayed stream of predictor states. Each
// predictor observes a 20 000-request warm-up (a few preferred successors
// per item, one jump in eight anywhere); every iteration then times one
// row at the current state and, outside the timed region, observes the
// next of 20 000 replay requests. After the last one the predictor is
// rebuilt and the replay starts over, so a run times the same mix of
// states (LZ78 root, inner and fresh rows; PPM contexts of every order)
// instead of whichever row kind one fixed state lands on. _Dense is
// predict_into plus the min-prob filter loop the drivers ran before
// predict_filtered_into; _Filtered is that primitive, which the learned
// drivers now call. Both produce the same row bit for bit
// (tests/test_predictors.cpp); the pair attributes the learned-request
// saving to the predict layer. The n = 10^4 Markov1 rows rely on the
// sparse transition table (a dense one is 800 MB).
constexpr double kBenchMinProb = 0.01;  // SimSpec::predictor_min_prob
constexpr std::size_t kPredictWarmup = 20'000;
constexpr std::size_t kPredictReplay = 20'000;

std::vector<ItemId> predictor_stream(std::size_t n) {
  Rng rng(29);
  const std::size_t k = std::min<std::size_t>(n, 4);
  std::vector<ItemId> succ(n * k);
  for (ItemId& s : succ) s = static_cast<ItemId>(rng.next_below(n));
  std::vector<ItemId> stream;
  std::size_t cur = 0;
  for (std::size_t i = 0; i < kPredictWarmup + kPredictReplay; ++i) {
    cur = rng.next_below(8) == 0
              ? static_cast<std::size_t>(rng.next_below(n))
              : static_cast<std::size_t>(succ[cur * k + rng.next_below(k)]);
    stream.push_back(static_cast<ItemId>(cur));
  }
  return stream;
}

void run_predict(benchmark::State& state, PredictorKind kind,
                 bool filtered) {
  using Clock = std::chrono::steady_clock;
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<ItemId> stream = predictor_stream(n);
  std::unique_ptr<Predictor> pred;
  std::size_t t = stream.size();
  std::vector<double> P;
  std::vector<ItemId> support;
  for (auto _ : state) {
    if (t == stream.size()) {
      pred = make_runtime_predictor(kind, n);
      for (t = 0; t < kPredictWarmup; ++t) pred->observe(stream[t]);
    }
    const Clock::time_point start = Clock::now();
    if (filtered) {
      pred->predict_filtered_into(kBenchMinProb, P, support);
    } else {
      pred->predict_into(P);
      for (double& p : P) {
        if (p < kBenchMinProb) p = 0.0;
      }
    }
    benchmark::DoNotOptimize(P.data());
    benchmark::ClobberMemory();
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
    pred->observe(stream[t++]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Predict_Markov1_Dense(benchmark::State& state) {
  run_predict(state, PredictorKind::Markov1, false);
}
BENCHMARK(BM_Predict_Markov1_Dense)->Arg(100)->Arg(10'000)
    ->UseManualTime();
void BM_Predict_Markov1_Filtered(benchmark::State& state) {
  run_predict(state, PredictorKind::Markov1, true);
}
BENCHMARK(BM_Predict_Markov1_Filtered)->Arg(100)->Arg(10'000)
    ->UseManualTime();
void BM_Predict_Lz78_Dense(benchmark::State& state) {
  run_predict(state, PredictorKind::Lz78, false);
}
BENCHMARK(BM_Predict_Lz78_Dense)->Arg(100)->Arg(10'000)
    ->UseManualTime();
void BM_Predict_Lz78_Filtered(benchmark::State& state) {
  run_predict(state, PredictorKind::Lz78, true);
}
BENCHMARK(BM_Predict_Lz78_Filtered)->Arg(100)->Arg(10'000)
    ->UseManualTime();
void BM_Predict_Ppm_Dense(benchmark::State& state) {
  run_predict(state, PredictorKind::Ppm, false);
}
BENCHMARK(BM_Predict_Ppm_Dense)->Arg(100)->Arg(10'000)
    ->UseManualTime();
void BM_Predict_Ppm_Filtered(benchmark::State& state) {
  run_predict(state, PredictorKind::Ppm, true);
}
BENCHMARK(BM_Predict_Ppm_Filtered)->Arg(100)->Arg(10'000)
    ->UseManualTime();

}  // namespace
