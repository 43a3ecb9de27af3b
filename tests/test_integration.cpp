// End-to-end shape checks across modules: the qualitative claims of the
// paper's evaluation, reproduced at reduced scale so the full suite stays
// fast. The full-scale reproductions live in bench/.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/access_model.hpp"
#include "core/brute_force.hpp"
#include "sim/netsim.hpp"
#include "sim/prefetch_cache.hpp"
#include "sim/prefetch_only.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

// The Figure-5 prefetch-only protocol at n = 10.
SimSpec prefetch_only_spec() {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchOnly;
  spec.workload.kind = SimWorkloadKind::Iid;
  spec.workload.n_items = 10;
  return spec;
}

TEST(Integration, Fig5OrderingSkewySmallScale) {
  // perfect <= SKP < none, KP < none under the skewy method (Fig. 5a).
  SimSpec base = prefetch_only_spec();
  base.requests = 12000;
  base.seed = 42;
  base.workload.method = ProbMethod::Skewy;
  auto run = [&](PrefetchPolicy p) {
    auto cfg = base;
    cfg.policy = p;
    return run_prefetch_only(cfg).metrics.mean_access_time();
  };
  const double perfect = run(PrefetchPolicy::Perfect);
  const double skp = run(PrefetchPolicy::SKP);
  const double kp = run(PrefetchPolicy::KP);
  const double none = run(PrefetchPolicy::None);
  EXPECT_LE(perfect, skp);
  EXPECT_LT(skp, none);
  EXPECT_LT(kp, none);
}

TEST(Integration, Fig5SmallVAnomalyIsTheDeltaRule) {
  // Fig. 5a: "The exception is when v is small where the SKP prefetch
  // performs worse than no prefetch." Reproduction finding (DESIGN.md D1):
  // the anomaly is an artifact of the Figure-3 tail-sum delta — under it,
  // overestimated g triggers losing stretches at tiny v; the corrected
  // complement rule never loses to no-prefetch in expectation (it only
  // prefetches when the true expected improvement is positive).
  auto run = [](PrefetchPolicy pol, DeltaRule rule) {
    SimSpec cfg = prefetch_only_spec();
    cfg.requests = 120000;
    cfg.seed = 5;
    cfg.workload.method = ProbMethod::Skewy;
    cfg.policy = pol;
    cfg.delta_rule = rule;
    return run_prefetch_only(cfg);
  };
  const auto tail = run(PrefetchPolicy::SKP, DeltaRule::PaperTail);
  const auto exact = run(PrefetchPolicy::SKP, DeltaRule::ExactComplement);
  const auto none = run(PrefetchPolicy::None, DeltaRule::ExactComplement);

  auto mean_over = [](const BinnedMeans& bm, int lo, int hi) {
    OnlineStats s;
    for (int v = lo; v <= hi; ++v) s.merge(bm.bin(v));
    return s.mean();
  };
  // Paper-faithful rule reproduces the paper's small-v exception ...
  EXPECT_GT(mean_over(*tail.avg_T_by_v, 1, 3),
            mean_over(*none.avg_T_by_v, 1, 3) + 2.0);
  // ... the corrected rule removes it ...
  EXPECT_LE(mean_over(*exact.avg_T_by_v, 1, 3),
            mean_over(*none.avg_T_by_v, 1, 3) + 0.5);
  // ... and both beat no-prefetch handily at moderate v.
  EXPECT_LT(mean_over(*tail.avg_T_by_v, 30, 50),
            mean_over(*none.avg_T_by_v, 30, 50));
  EXPECT_LT(mean_over(*exact.avg_T_by_v, 30, 50),
            mean_over(*none.avg_T_by_v, 30, 50));
}

TEST(Integration, Fig7PolicyOrderingSmallScale) {
  SimSpec base;  // prefetch_cache driver, markov workload
  base.workload.n_items = 40;
  base.workload.out_degree_lo = 5;
  base.workload.out_degree_hi = 10;
  base.cache_size = 8;
  base.requests = 6000;
  base.seed = 9;
  auto run = [&](PrefetchPolicy p, SubArbitration sub) {
    auto cfg = base;
    cfg.policy = p;
    cfg.sub = sub;
    return run_prefetch_cache(cfg).metrics.mean_access_time();
  };
  const double none = run(PrefetchPolicy::None, SubArbitration::None);
  const double kp = run(PrefetchPolicy::KP, SubArbitration::None);
  const double skp = run(PrefetchPolicy::SKP, SubArbitration::None);
  // Fig. 7 ordering: prefetching beats not prefetching; SKP at least
  // matches KP (they coincide within noise on some workloads).
  EXPECT_LT(kp, none);
  EXPECT_LT(skp, none);
  EXPECT_LE(skp, kp + 0.3);
}

TEST(Integration, CacheSizeSweepMonotoneTrend) {
  // Fig. 7 x-axis: access time decreases (weakly, within noise) as the
  // cache grows. Compare the two endpoints with a healthy margin.
  SimSpec base;  // prefetch_cache driver, markov workload
  base.workload.n_items = 40;
  base.workload.out_degree_lo = 5;
  base.workload.out_degree_hi = 10;
  base.requests = 4000;
  base.seed = 10;
  base.policy = PrefetchPolicy::SKP;
  auto at_size = [&](std::size_t s) {
    auto cfg = base;
    cfg.cache_size = s;
    return run_prefetch_cache(cfg).metrics.mean_access_time();
  };
  EXPECT_GT(at_size(1), at_size(36));
}

TEST(Integration, DesAndAnalyticModelAgreeOnMarkovWorkload) {
  // Drive the DES client with a Markov source; with unit bandwidth and
  // zero latency, per-cycle access times must match the analytic
  // realized_access_time whenever the link is idle at cycle start (no
  // stretch carryover). We force idleness by flushing viewing times long
  // enough to drain the link: v >= sum r is enough.
  Rng build(12);
  MarkovSourceConfig mcfg;
  mcfg.n_states = 12;
  mcfg.out_degree_lo = 3;
  mcfg.out_degree_hi = 5;
  mcfg.v_lo = 400.0;  // longer than any plan's total retrieval time
  mcfg.v_hi = 500.0;
  MarkovSource src(mcfg, build);
  src.teleport(0);

  ServerCatalog cat{
      std::vector<double>(src.retrieval_times().begin(),
                          src.retrieval_times().end())};
  EngineConfig ecfg;
  ecfg.policy = PrefetchPolicy::SKP;
  ClientSession session(cat, NetConfig{}, ecfg, mcfg.n_states);

  // A parallel "analytic" tracker replays the same plans.
  SlotCache shadow_cache(mcfg.n_states, mcfg.n_states);
  FreqTracker shadow_freq(mcfg.n_states);
  const PrefetchEngine shadow_engine(ecfg);

  Rng walk(13);
  for (int step = 0; step < 60; ++step) {
    const std::size_t s = src.current_state();
    const Instance inst = src.instance_at(s);
    const auto next = static_cast<ItemId>(src.step(walk));

    const auto cache_before = std::vector<ItemId>(
        shadow_cache.contents().begin(), shadow_cache.contents().end());
    const auto plan =
        shadow_engine.plan_with_cache(inst, shadow_cache, &shadow_freq);
    for (ItemId f : plan.fetch) shadow_cache.insert(f);
    const double T_model = realized_access_time_cached(
        inst, plan.fetch, plan.evict, cache_before, next);

    const double T_des = session.request(next, inst.v, inst.P);
    EXPECT_NEAR(T_des, T_model, 1e-9) << "step " << step;

    shadow_freq.record(next);
    if (!shadow_cache.contains(next)) shadow_cache.insert(next);
  }
}

TEST(Integration, SolverScalesToFig7CandidateSizes) {
  // The Fig. 7 planner solves SKPs over <= 20 successors; confirm the
  // search stays tiny (paper: "theoretically proven apparatus to reduce
  // the search space").
  Rng rng(14);
  MarkovSourceConfig mcfg;  // paper defaults: 100 states, 10-20 successors
  MarkovSource src(mcfg, rng);
  std::uint64_t worst_nodes = 0;
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    const Instance inst = src.instance_at(s);
    std::vector<ItemId> cand(src.successors(s).begin(),
                             src.successors(s).end());
    const auto sol = solve_skp(inst, cand);
    worst_nodes = std::max(worst_nodes, sol.forward_steps);
  }
  EXPECT_LT(worst_nodes, 5000u);
}

TEST(Integration, BruteForceValidatesSolverOnMarkovRows) {
  // Fig. 7-style instances (sparse rows) hit the sub-unit-mass path; the
  // solver must still match exhaustive search over the successor set.
  Rng rng(15);
  MarkovSourceConfig mcfg;
  mcfg.n_states = 25;
  mcfg.out_degree_lo = 4;
  mcfg.out_degree_hi = 9;
  MarkovSource src(mcfg, rng);
  for (std::size_t s = 0; s < src.n_states(); ++s) {
    const Instance inst = src.instance_at(s);
    std::vector<ItemId> cand(src.successors(s).begin(),
                             src.successors(s).end());
    const auto sol = solve_skp(inst, cand);
    const auto bf = brute_force_skp_canonical(inst, cand);
    EXPECT_NEAR(sol.g, bf.g, 1e-9) << "state " << s;
  }
}

}  // namespace
}  // namespace skp
