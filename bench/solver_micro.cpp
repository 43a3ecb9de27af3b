// E5: solver microbenchmarks (google-benchmark).
//
// The paper claims the Figure-3 algorithm "uses theoretically proven
// apparatus to reduce the search space"; these benchmarks quantify that:
// SKP branch-and-bound vs exhaustive subset search across n, plus the KP
// solvers for context, under both probability shapes.
//
// Every row performs one untimed warmup solve before its timed loop (cold
// first-call effects — lazy allocations, cold caches — stay out of the
// numbers) and reports items_per_second with items = solves, so per-solve
// ns is 1e9 / items_per_second straight from the snapshot.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/brute_force.hpp"
#include "core/kp_solver.hpp"
#include "core/skp_solver.hpp"
#include "workload/prob_gen.hpp"

namespace {

using namespace skp;

Instance make_instance(std::size_t n, ProbMethod method,
                       std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.P = generate_probabilities(n, method, rng);
  inst.r.resize(n);
  for (auto& x : inst.r) {
    x = static_cast<double>(rng.uniform_int(1, 30));
  }
  inst.v = static_cast<double>(rng.uniform_int(1, 100));
  return inst;
}

void BM_SkpSolve_Skewy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Skewy, 42 + n);
  std::uint64_t nodes = 0;
  benchmark::DoNotOptimize(solve_skp(inst).g);  // warmup (untimed)
  for (auto _ : state) {
    const auto sol = solve_skp(inst);
    nodes = sol.forward_steps;
    benchmark::DoNotOptimize(sol.g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SkpSolve_Skewy)->Arg(10)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_SkpSolve_Flat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Flat, 43 + n);
  std::uint64_t nodes = 0;
  benchmark::DoNotOptimize(solve_skp(inst).g);  // warmup (untimed)
  for (auto _ : state) {
    const auto sol = solve_skp(inst);
    nodes = sol.forward_steps;
    benchmark::DoNotOptimize(sol.g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SkpSolve_Flat)->Arg(10)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_SkpSolve_PaperTail(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Skewy, 42 + n);
  SkpOptions opts;
  opts.delta_rule = DeltaRule::PaperTail;
  benchmark::DoNotOptimize(solve_skp(inst, opts).g);  // warmup (untimed)
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_skp(inst, opts).g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkpSolve_PaperTail)->Arg(10)->Arg(50)->Arg(100);

void BM_SkpBruteForce(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Flat, 44 + n);
  benchmark::DoNotOptimize(brute_force_skp(inst).g);  // warmup (untimed)
  for (auto _ : state) {
    benchmark::DoNotOptimize(brute_force_skp(inst).g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkpBruteForce)->Arg(10)->Arg(14)->Arg(18);

void BM_KpBranchAndBound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Flat, 45 + n);
  benchmark::DoNotOptimize(solve_kp_bb(inst).value);  // warmup (untimed)
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_kp_bb(inst).value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KpBranchAndBound)->Arg(10)->Arg(50)->Arg(100);

void BM_KpDynamicProgram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Flat, 46 + n);
  benchmark::DoNotOptimize(solve_kp_dp(inst).value);  // warmup (untimed)
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_kp_dp(inst).value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KpDynamicProgram)->Arg(10)->Arg(50)->Arg(100);

void BM_UpperBound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, ProbMethod::Skewy, 47 + n);
  benchmark::DoNotOptimize(skp_upper_bound(inst));  // warmup (untimed)
  for (auto _ : state) {
    benchmark::DoNotOptimize(skp_upper_bound(inst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UpperBound)->Arg(10)->Arg(100)->Arg(1000);

// The Fig. 7 planning step: sparse Markov row (<= 20 positive entries) as
// candidates — the workload the engine actually faces per request.
void BM_SkpSolve_MarkovRow(benchmark::State& state) {
  Rng rng(48);
  // Emulate a paper-default row: 100-item catalog, 20 successors.
  const std::size_t n = 100;
  Instance inst;
  inst.P.assign(n, 0.0);
  inst.r.resize(n);
  for (auto& x : inst.r) x = static_cast<double>(rng.uniform_int(1, 30));
  std::vector<ItemId> cand;
  double mass = 0;
  std::vector<double> w(20);
  for (auto& x : w) {
    x = rng.exponential(1.0);
    mass += x;
  }
  for (std::size_t k = 0; k < 20; ++k) {
    const auto id = static_cast<ItemId>(k * 5);
    inst.P[Instance::idx(id)] = w[k] / mass;
    cand.push_back(id);
  }
  inst.v = 50.0;
  benchmark::DoNotOptimize(solve_skp(inst, cand).g);  // warmup (untimed)
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_skp(inst, cand).g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkpSolve_MarkovRow);

}  // namespace
