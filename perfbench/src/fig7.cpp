// fig7_oracle: the paper's Figure-7 experiment through run_sim.
//
// Grid: the five Figure-7 policies x a thinned cache-size axis, 50 000
// requests per point on the paper-default 100-state oracle chain. The
// per-point length is the paper's on purpose: the plan memo's selection
// tier hits ~90% at this length and far less on short points, so
// shortening points would measure a different memo regime. Each point
// draws its own chain from the benchmark seed (the figure holds the
// policies to one chain; a benchmark averages over more chains instead,
// which keeps the cost of one run from hinging on a few chains).
#include <algorithm>
#include <optional>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"
#include "core/arbitration.hpp"
#include "core/plan_cache.hpp"
#include "core/prefetch_engine.hpp"
#include "sim/grounded.hpp"
#include "sim/runtime.hpp"
#include "workload/markov_source.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace skp;

constexpr std::size_t kRequestsPerPoint = 50'000;
constexpr std::size_t kCacheSizes[] = {10, 25, 50, 75};

struct Fig7Policy {
  PrefetchPolicy policy;
  SubArbitration sub;
};
constexpr Fig7Policy kPolicies[] = {
    {PrefetchPolicy::None, SubArbitration::None},
    {PrefetchPolicy::KP, SubArbitration::None},
    {PrefetchPolicy::SKP, SubArbitration::None},
    {PrefetchPolicy::SKP, SubArbitration::LFU},
    {PrefetchPolicy::SKP, SubArbitration::DS},
};

std::vector<SimSpec> make_specs(std::uint64_t seed) {
  std::vector<SimSpec> specs;
  for (const std::size_t cache_size : kCacheSizes) {
    for (const Fig7Policy& pol : kPolicies) {
      SimSpec spec;  // prefetch_cache driver, paper-default Markov source
      spec.cache_size = cache_size;
      spec.policy = pol.policy;
      spec.sub = pol.sub;
      spec.delta_rule = DeltaRule::ExactComplement;
      spec.requests = kRequestsPerPoint;
      spec.seed = derive_seed(seed, specs.size());
      specs.push_back(spec);
    }
  }
  return specs;
}

enum Fig7Layer : std::size_t {
  kWorkload,
  kPlan,
  kAccess,
  kVictim,
  kCache,
};

// The prefetch_cache oracle loop (sim/prefetch_cache.cpp), call for call
// through the public layer functions, with every call a span. Handles
// the specs make_specs() builds: oracle rows, no lookahead, no drift.
SimResult mirror_point(const SimSpec& spec, Tracer& tr,
                       std::uint64_t& request_id) {
  Rng build_rng(spec.seed);
  MarkovSource source(to_markov_config(spec.workload), build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  const std::size_t n = source.n_states();

  EngineConfig ecfg;
  ecfg.policy = spec.policy;
  ecfg.delta_rule = spec.delta_rule;
  ecfg.arbitration.sub = spec.sub;
  ecfg.min_profit_threshold = spec.min_profit_threshold;
  ecfg.evaluate_plan_g = false;
  const PrefetchEngine engine(ecfg);

  SlotCache cache(n, spec.cache_size);
  FreqTracker freq(n);
  std::vector<char> unused_prefetch(n, 0);
  PlanScratch scratch;
  PrefetchPlan plan;

  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  std::optional<CanonicalOrderTable> canon;
  if (spec.use_plan_cache) {
    if (spec.sub == SubArbitration::None) {
      plans.emplace(engine.config_digest(), spec.plan_cache_capacity,
                    /*doorkeeper=*/true);
    }
    selections.emplace(engine.config_digest(), spec.plan_cache_capacity);
    canon.emplace(n);
  }

  SimResult result;
  SimMetrics& m = result.metrics;
  std::size_t state = source.current_state();
  for (std::size_t req = 0; req < spec.requests; ++req) {
    tr.begin_request(request_id++);
    const bool counted = req >= spec.warmup;
    struct Step {
      InstanceView inst;
      std::span<const ItemId> hint;
      ItemId next;
    };
    const Step st = tr.span(kWorkload, [&] {
      Step s;
      s.inst = source.view_at(state);
      s.hint = source.successors(state);
      s.next = static_cast<ItemId>(source.step(walk_rng));
      return s;
    });
    const ItemId next = st.next;
    std::optional<ItemId> oracle;
    if (spec.policy == PrefetchPolicy::Perfect) oracle = next;

    PlanMemo memo;
    memo.plans = plans ? &*plans : nullptr;
    memo.selections = selections ? &*selections : nullptr;
    memo.canon = canon ? &*canon : nullptr;
    memo.state_key = state;
    tr.span(kPlan, [&] {
      engine.plan_with_cache_cached(st.inst, cache, &freq, memo, scratch,
                                    plan, oracle, st.hint);
    });
    const double T = tr.span(kAccess, [&] {
      return realized_access_time_cached(st.inst, plan.fetch, plan.evict,
                                         cache.presence(), next);
    });

    std::size_t victim_idx = 0;
    for (const ItemId f : plan.fetch) {
      if (cache.full()) {
        const ItemId d = plan.evict[victim_idx++];
        if (unused_prefetch[InstanceView::idx(d)]) {
          if (counted) ++m.wasted_prefetches;
          unused_prefetch[InstanceView::idx(d)] = 0;
        }
        tr.span(kCache, [&] { cache.replace(d, f); });
      } else {
        tr.span(kCache, [&] { cache.insert(f); });
      }
      unused_prefetch[InstanceView::idx(f)] = 1;
      if (counted) {
        ++m.prefetch_fetches;
        m.network_time += st.inst.r[InstanceView::idx(f)];
        m.prefetch_network_time += st.inst.r[InstanceView::idx(f)];
      }
    }
    if (counted) {
      m.solver_nodes += plan.solver_nodes;
      m.access_time.add(T);
      ++m.requests;
      if (T == 0.0) ++m.hits;
      if (T > source.viewing_time(state)) ++result.over_viewing_time;
    }

    tr.span(kCache, [&] { freq.record(next); });
    unused_prefetch[InstanceView::idx(next)] = 0;
    if (!tr.span(kCache, [&] { return cache.contains(next); })) {
      if (counted) {
        ++m.demand_fetches;
        m.network_time += source.retrieval_time(next);
        m.demand_network_time += source.retrieval_time(next);
      }
      if (cache.full()) {
        const InstanceView next_inst = tr.span(kWorkload, [&] {
          return source.view_at(static_cast<std::size_t>(next));
        });
        const ItemId d = tr.span(kVictim, [&] {
          return choose_victim(next_inst, cache.contents(), &freq,
                               ecfg.arbitration);
        });
        if (unused_prefetch[InstanceView::idx(d)]) {
          if (counted) ++m.wasted_prefetches;
          unused_prefetch[InstanceView::idx(d)] = 0;
        }
        tr.span(kCache, [&] { cache.replace(d, next); });
      } else {
        tr.span(kCache, [&] { cache.insert(next); });
      }
    }
    state = static_cast<std::size_t>(next);
    tr.end_request();
  }
  if (plans) result.plan_cache.plans = plans->stats();
  if (selections) result.plan_cache.selections = selections->stats();
  return result;
}

}  // namespace

Report run_fig7_oracle(const Options& opt) {
  Report report;
  declare_metrics(report, opt.trace);

  std::vector<SimSpec> specs = make_specs(opt.seed);
  std::vector<std::uint64_t> requests;
  for (const SimSpec& s : specs) requests.push_back(s.requests);

  std::vector<SimResult> first;
  std::vector<SimResult> results;
  const auto t_run = Clock::now();

  if (!opt.trace) {
    std::vector<double> best_s;
    std::vector<double> setups;
    std::size_t passes = 0;
    CpuRotation cpu;
    while (passes == 0 || seconds_since(t_run) < opt.seconds) {
      cpu.next();
      // Set-up is building the spec list. It takes microseconds, so
      // each pass starts with a 10 ms burst of builds.
      std::size_t builds = 0;
      const auto t_setup = Clock::now();
      while (seconds_since(t_setup) < 0.01) {
        specs = make_specs(opt.seed);
        ++builds;
      }
      setups.push_back(seconds_since(t_setup) / static_cast<double>(builds));
      run_pass(specs, results, &best_s);
      check_repeat(results, first, "fig7 point", report);
      report.attempted += specs.size();
      ++passes;
    }
    report_best_times(report, best_s, requests);
    report.set("setup_s", *std::min_element(setups.begin(), setups.end()),
               "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");

    // Second code path, outside the timed phase: memoization off is
    // pinned bit-identical on every simulator counter.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SimSpec plain = specs[i];
      plain.use_plan_cache = false;
      std::string expected = digest_without_memo(run_sim(plain));
      if (opt.perturb && i == 0) expected += "perturbed";
      if (digest_without_memo(first[i]) != expected) {
        report.failed += passes;
        report.fail_check("fig7 point " + std::to_string(i) +
                          " differs from the memo-off run");
      }
    }
    return report;
  }

  // Traced run: alternate untraced run_sim passes with traced mirror
  // passes; end-to-end numbers never come from here.
  Tracer tracer({"workload", "core.plan", "core.access", "core.victim",
                 "cache"},
                /*sample_every=*/512);
  std::uint64_t request_id = 0;
  double untraced_s = 0.0, traced_s = 0.0;
  PlanMemoStats memo;
  std::uint64_t solver_nodes = 0;
  std::size_t passes = 0;
  while (passes == 0 || seconds_since(t_run) < opt.seconds) {
    untraced_s += run_pass(specs, results, nullptr);
    check_repeat(results, first, "fig7 point", report);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const SimResult mirrored = mirror_point(specs[i], tracer, request_id);
      std::string expected = result_digest(first[i]);
      if (opt.perturb && i == 0) expected += "perturbed";
      if (result_digest(mirrored) != expected) {
        ++report.failed;
        report.fail_check("traced mirror of fig7 point " +
                          std::to_string(i) + " differs from run_sim");
      }
      memo.merge(mirrored.plan_cache);
      solver_nodes += mirrored.metrics.solver_nodes;
      ++report.attempted;
    }
    traced_s += seconds_since(t0);
    ++passes;
  }
  const double reqs = static_cast<double>(tracer.requests());
  report.set("core.plan.ns", tracer.self_ns(kPlan) / reqs, "ns");
  report.set("core.memo.plan_hit_rate", memo.plans.hit_rate(), "ratio");
  report.set("core.memo.select_hit_rate", memo.selections.hit_rate(),
             "ratio");
  report.set("core.solver.nodes_per_req",
             static_cast<double>(solver_nodes) / reqs, "count");
  const double victim_calls = static_cast<double>(tracer.calls(kVictim));
  report.set("core.victim.ns",
             victim_calls > 0 ? tracer.self_ns(kVictim) / victim_calls : 0.0,
             "ns");
  report.set("core.victim.calls_per_req", victim_calls / reqs, "count");
  report.set("core.access.ns", tracer.self_ns(kAccess) / reqs, "ns");
  report.set("cache.ns", tracer.self_ns(kCache) / reqs, "ns");
  report.set("workload.ns", tracer.self_ns(kWorkload) / reqs, "ns");
  report.set("trace.coverage", tracer.coverage(), "ratio");
  report.set("trace.overhead", traced_s / untraced_s - 1.0, "ratio");
  if (!opt.out_dir.empty()) {
    tracer.write(opt.out_dir + "/fig7_oracle-seed" +
                 std::to_string(opt.seed) + ".spans.csv");
  }
  return report;
}

}  // namespace perfbench
