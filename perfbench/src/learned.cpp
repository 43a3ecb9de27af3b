// learned_des: learned predictors on a 1000-item catalog over a lossy
// link, through run_sim.
//
// Three netsim_des specs (markov1, lz78, ppm) and one multi_client spec
// whose four clients mix those predictors on one shared link. Transfers
// fail at a fixed rate and are retried. The overload controller stays
// off: it would walk markov1 and ppm down to "prefetch off" and hide
// the planner. Learned rows change after every observation, so the plan
// memo is bypassed by design and every request solves from a dense
// filtered row: this is the predictor- and DES-bound workload. Its traced
// run also drives the skpd daemon, which serves the same netsim_des
// request path over the wire (skpd_load.cpp).
//
// Every learned spec observes a 500-request prefix before it plans. From
// a cold start, ppm's first rows put ~1% on dozens of items, and on about
// one chain in ten a single SKP solve then runs for 20M to over 1G nodes
// (0.4 s to 53 s). A run would then take as long as that one solve. The
// traced run measures that solve on a fixed cold-start spec instead
// (core.solver.cold_start_nodes), so the defect stays visible and exact.
#include <algorithm>
#include <memory>

#include "core/overload.hpp"
#include "sim/catalog.hpp"
#include "sim/fault.hpp"
#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace skp;

constexpr PredictorKind kPredictors[] = {
    PredictorKind::Markov1, PredictorKind::Lz78, PredictorKind::Ppm};
constexpr const char* kPredictorNames[] = {"markov1", "lz78", "ppm"};
constexpr std::size_t kNetsimRequests = 20'000;
constexpr std::size_t kClients = 4;
constexpr std::size_t kRequestsPerClient = 5'000;
constexpr std::size_t kPredictorWarmup = 500;

SimSpec learned_spec(std::uint64_t seed) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.n_items = 1000;
  spec.cache_size = 50;
  spec.requests = kNetsimRequests;
  spec.seed = seed;
  spec.fault.fail_rate = 0.05;
  spec.fault.retry.max_attempts = 3;
  spec.fault.retry.backoff_base = 1.0;
  spec.predictor_warmup = kPredictorWarmup;
  return spec;
}

// A ppm spec without warmup whose 82nd request costs ~20M solver nodes.
SimSpec cold_start_spec() {
  SimSpec spec = learned_spec(derive_seed(106, 102));
  spec.predictor = PredictorKind::Ppm;
  spec.predictor_warmup = 0;
  spec.requests = 200;
  return spec;
}

// specs[0..2]: netsim_des per predictor; specs[3]: the multi_client mix.
std::vector<SimSpec> make_specs(std::uint64_t seed) {
  std::vector<SimSpec> specs;
  for (std::size_t k = 0; k < std::size(kPredictors); ++k) {
    SimSpec spec = learned_spec(derive_seed(seed, 100 + k));
    spec.predictor = kPredictors[k];
    specs.push_back(spec);
  }
  SimSpec mc = learned_spec(derive_seed(seed, 200));
  mc.driver = SimDriverKind::MultiClientDes;
  mc.predictor = PredictorKind::Markov1;
  mc.requests = kRequestsPerClient;
  mc.multi_client.clients = kClients;
  mc.multi_client.overrides.resize(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    mc.multi_client.overrides[c].predictor =
        kPredictors[c % std::size(kPredictors)];
  }
  specs.push_back(mc);
  return specs;
}

std::uint64_t spec_requests(const SimSpec& spec) {
  return spec.driver == SimDriverKind::MultiClientDes
             ? spec.requests * spec.multi_client.clients
             : spec.requests;
}

// multi_client's documented books: conservation across clients and the
// exact fault identity.
bool multi_client_books_hold(const SimSpec& spec, const SimResult& r) {
  std::uint64_t requests = 0, demand = 0, hits = 0;
  for (const SimMetrics& c : r.per_client) {
    requests += c.requests;
    demand += c.demand_fetches;
    hits += c.hits;
  }
  return r.per_client.size() == spec.multi_client.clients &&
         r.metrics.requests == spec_requests(spec) &&
         requests == r.metrics.requests &&
         demand == r.metrics.demand_fetches && hits == r.metrics.hits &&
         r.resident_hits() + r.metrics.demand_fetches ==
             r.metrics.requests &&
         r.fault.failed_transfers == r.fault.retries + r.fault.abandoned;
}

// Layers of the traced learned loop: per predictor a predict and an
// observe layer, then the session request.
constexpr std::size_t kPredictLayer = 0;   // + 2 * predictor index
constexpr std::size_t kObserveLayer = 1;   // + 2 * predictor index
constexpr std::size_t kSessionLayer = 6;

// The netsim_des learned loop (sim/netsim_stepper.cpp step_learned) as
// predict_into + filter -> ClientSession::request -> observe.
SimResult mirror_learned(const SimSpec& spec, std::size_t pk,
                         const SharedCatalog& catalog, Tracer& tr,
                         std::uint64_t& request_id) {
  const std::size_t n = spec.workload.n_items;
  NetConfig net;
  net.bandwidth = spec.bandwidth;
  net.latency = spec.latency;
  net.schedule = spec.link_schedule;
  EngineConfig ecfg;
  ecfg.policy = spec.policy;
  ecfg.delta_rule = spec.delta_rule;
  ecfg.arbitration.sub = spec.sub;
  ecfg.min_profit_threshold = spec.min_profit_threshold;
  ecfg.evaluate_plan_g = false;
  ClientSession session(catalog.client(), std::move(net), ecfg,
                        spec.cache_size);
  if (spec.use_plan_cache) session.enable_plan_cache(spec.plan_cache_capacity);
  if (spec.fault.enabled()) {
    session.set_fault_injection(spec.fault,
                                Rng(spec.seed).split(kFaultStreamSalt));
  }
  OverloadController overload(spec.overload);
  const MaterializedWorkload& mat = catalog.materialized();
  const std::unique_ptr<Predictor> predictor =
      make_runtime_predictor(spec.predictor, n);
  std::vector<double> P(n, 0.0);
  const std::vector<double> zeros(n, 0.0);

  std::uint64_t plans = 0, prev_prefetches = 0, deadline_hits = 0;
  for (std::size_t i = 0; i < spec.requests; ++i) {
    tr.begin_request(request_id++);
    const TraceRecord& rec = mat.cycles[i];
    std::span<const double> row = zeros;
    if (i >= spec.predictor_warmup) {
      tr.span(kPredictLayer + 2 * pk, [&] {
        predictor->predict_into(P);
        for (double& p : P) {
          if (p < spec.predictor_min_prob) p = 0.0;
        }
      });
      overload.degrade_row(P);
      row = P;
    }
    std::optional<ItemId> oracle_next;
    if (spec.policy == PrefetchPolicy::Perfect) oracle_next = rec.item;
    const double T = tr.span(kSessionLayer, [&] {
      return session.request(rec.item, rec.viewing_time, row, oracle_next);
    });
    const std::uint64_t now = session.metrics().prefetch_fetches;
    if (now > prev_prefetches) ++plans;
    prev_prefetches = now;
    if (spec.deadline > 0.0 && T <= spec.deadline) ++deadline_hits;
    if (overload.observe(T)) {
      session.invalidate_plan_cache();
      session.set_plan_admission_frozen(
          overload.rung() >= DegradationRung::kStrictAdmission);
    }
    tr.span(kObserveLayer + 2 * pk, [&] { predictor->observe(rec.item); });
    tr.end_request();
  }
  SimResult out;
  out.metrics = session.metrics();
  out.plan_cache = session.plan_cache_stats();
  out.plans = plans;
  out.link_utilization = session.link_utilization();
  out.fault = session.fault_stats();
  out.overload = overload.stats();
  out.deadline_hits = deadline_hits;
  return out;
}

// Heap a predictor holds after observing the spec's whole cycle script.
double predictor_heap_mb(const SimSpec& spec, const SharedCatalog& catalog) {
  const std::size_t before = heap_in_use_bytes();
  std::unique_ptr<Predictor> predictor =
      make_runtime_predictor(spec.predictor, spec.workload.n_items);
  for (const TraceRecord& rec : catalog.materialized().cycles) {
    predictor->observe(rec.item);
  }
  const std::size_t after = heap_in_use_bytes();
  return after > before ? static_cast<double>(after - before) / (1 << 20)
                        : 0.0;
}

using Catalogs = std::vector<std::shared_ptr<const SharedCatalog>>;

Catalogs acquire_catalogs(const std::vector<SimSpec>& specs) {
  Catalogs held;
  for (const SimSpec& spec : specs) {
    if (spec.driver == SimDriverKind::NetsimDes) {
      held.push_back(SharedCatalog::acquire(spec));
    }
  }
  return held;
}

}  // namespace

Report run_learned_des(const Options& opt) {
  Report report;
  declare_metrics(report, opt.trace);
  const std::vector<SimSpec> specs = make_specs(opt.seed);
  std::vector<std::uint64_t> requests;
  for (const SimSpec& s : specs) requests.push_back(spec_requests(s));

  // Set-up: intern every netsim spec's grounding (catalog + materialized
  // cycle script), held alive so run_sim reuses it. The untraced run
  // redoes it from scratch before every pass.
  Catalogs catalogs = acquire_catalogs(specs);
  std::vector<double> setups;

  std::vector<SimResult> first;
  std::vector<SimResult> results;
  const auto t_run = Clock::now();

  if (!opt.trace) {
    std::vector<double> best_s;
    std::size_t passes = 0;
    CpuRotation cpu;
    while (passes == 0 || seconds_since(t_run) < opt.seconds) {
      cpu.next();
      catalogs.clear();
      const auto t_setup = Clock::now();
      catalogs = acquire_catalogs(specs);
      setups.push_back(seconds_since(t_setup));
      run_pass(specs, results, &best_s);
      check_repeat(results, first, "learned_des spec", report);
      report.attempted += specs.size();
      ++passes;
    }
    report_best_times(report, best_s, requests);
    report.set("setup_s", *std::min_element(setups.begin(), setups.end()),
               "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");

    // Second code paths, outside the timed phase.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      bool ok = true;
      if (specs[i].driver == SimDriverKind::MultiClientDes) {
        SimResult r = first[i];
        if (opt.perturb) ++r.metrics.requests;
        ok = multi_client_books_hold(specs[i], r);
      } else {
        SimSpec plain = specs[i];
        plain.use_plan_cache = false;
        std::string expected = digest_without_memo(run_sim(plain));
        if (opt.perturb && i == 0) expected += "perturbed";
        ok = digest_without_memo(first[i]) == expected;
      }
      if (!ok) {
        report.failed += passes;
        report.fail_check("learned_des spec " + std::to_string(i) +
                          " failed its output check");
      }
    }
    return report;
  }

  Tracer tracer({"predict.markov1.predict", "predict.markov1.observe",
                 "predict.lz78.predict", "predict.lz78.observe",
                 "predict.ppm.predict", "predict.ppm.observe",
                 "sim.netsim.request"},
                /*sample_every=*/256);
  std::uint64_t request_id = 0;
  double untraced_s = 0.0, traced_s = 0.0;
  double mc_requests = 0.0, mc_seconds = 0.0;
  std::uint64_t solver_nodes = 0, netsim_requests = 0;
  // The mirror gets the first half of the run, the skpd probe the rest.
  std::size_t passes = 0;
  while (passes == 0 || seconds_since(t_run) < opt.seconds / 2) {
    untraced_s += run_pass(specs, results, nullptr);
    check_repeat(results, first, "learned_des spec", report);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ++report.attempted;
      if (specs[i].driver == SimDriverKind::MultiClientDes) {
        // Not mirrored: timed as one span, outside the request tracer
        // so it does not count toward coverage.
        const auto ts = Clock::now();
        SimResult r = run_sim(specs[i]);
        mc_seconds += seconds_since(ts);
        mc_requests += static_cast<double>(spec_requests(specs[i]));
        if (opt.perturb) ++r.metrics.requests;
        if (!multi_client_books_hold(specs[i], r) ||
            result_digest(r) != result_digest(first[i])) {
          ++report.failed;
          report.fail_check("multi_client spec broke its books");
        }
        continue;
      }
      const SimResult mirrored =
          mirror_learned(specs[i], i, *catalogs[i], tracer, request_id);
      std::string expected = result_digest(first[i]);
      if (opt.perturb && i == 0) expected += "perturbed";
      if (result_digest(mirrored) != expected) {
        ++report.failed;
        report.fail_check("traced mirror of learned_des spec " +
                          std::to_string(i) + " differs from run_sim");
      }
      solver_nodes += mirrored.metrics.solver_nodes;
      netsim_requests += mirrored.metrics.requests;
    }
    traced_s += seconds_since(t0);
    ++passes;
  }
  for (std::size_t k = 0; k < std::size(kPredictors); ++k) {
    const std::size_t predict = kPredictLayer + 2 * k;
    const std::size_t observe = kObserveLayer + 2 * k;
    const std::string base = std::string("predict.") + kPredictorNames[k];
    report.set(base + ".predict_ns",
               tracer.self_ns(predict) /
                   static_cast<double>(tracer.calls(predict)),
               "ns");
    report.set(base + ".observe_ns",
               tracer.self_ns(observe) /
                   static_cast<double>(tracer.calls(observe)),
               "ns");
    report.set(base + ".heap_mb", predictor_heap_mb(specs[k], *catalogs[k]),
               "MB");
  }
  report.set("sim.netsim.request_ns",
             tracer.self_ns(kSessionLayer) /
                 static_cast<double>(netsim_requests),
             "ns");
  report.set("sim.multi_client.requests_per_s", mc_requests / mc_seconds,
             "req/s");
  report.set("core.solver.nodes_per_req",
             static_cast<double>(solver_nodes) /
                 static_cast<double>(netsim_requests),
             "count");
  // The memo is bypassed on this workload: both tiers read 0 by design.
  PlanMemoStats memo;
  for (std::size_t i = 0; i < std::size(kPredictors); ++i) {
    memo.merge(first[i].plan_cache);
  }
  report.set("core.memo.plan_hit_rate", memo.plans.hit_rate(), "ratio");
  report.set("core.memo.select_hit_rate", memo.selections.hit_rate(),
             "ratio");
  const SimResult cold = run_sim(cold_start_spec());
  report.set("core.solver.cold_start_nodes",
             static_cast<double>(cold.metrics.solver_nodes), "count");
  report.set("trace.coverage", tracer.coverage(), "ratio");
  report.set("trace.overhead", traced_s / untraced_s - 1.0, "ratio");
  if (!opt.out_dir.empty()) {
    tracer.write(opt.out_dir + "/learned_des-seed" +
                 std::to_string(opt.seed) + ".spans.csv");
  }
  measure_skpd(opt, opt.seconds / 2, report);
  return report;
}

}  // namespace perfbench
