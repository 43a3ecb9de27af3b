#include "sim/runtime.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/replacement.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "sim/grounded.hpp"
#include "sim/multi_client.hpp"
#include "sim/netsim.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/prefetch_cache.hpp"
#include "sim/prefetch_only.hpp"
#include "sim/skpd_loopback.hpp"
#include "sim/trace_replay.hpp"
#include "util/parse_digits.hpp"
#include "util/require.hpp"
#include "workload/request_stream.hpp"

namespace skp {

std::unique_ptr<Predictor> make_predictor(PredictorKind kind, std::size_t n,
                                          double markov1_laplace) {
  switch (kind) {
    case PredictorKind::Oracle: return nullptr;
    case PredictorKind::Markov1:
      return std::make_unique<MarkovPredictor>(n, markov1_laplace);
    case PredictorKind::Ppm:
      return std::make_unique<PpmPredictor>(n, /*order=*/2);
    case PredictorKind::DependencyWindow:
      return std::make_unique<DependencyGraph>(n, /*window=*/2);
    case PredictorKind::Lz78:
      return std::make_unique<Lz78Predictor>(n);
  }
  return nullptr;
}

// make_predictor with the runtime pipelines' Markov1 smoothing (0.1;
// prefetch_cache and trace_replay use 0.05). Shared by the scenario,
// netsim_des and multi_client drivers so their rows stay comparable.
std::unique_ptr<Predictor> make_runtime_predictor(PredictorKind kind,
                                                  std::size_t n_items) {
  SKP_REQUIRE(kind != PredictorKind::Oracle,
              "this pipeline needs a learned predictor "
              "(markov1 | lz78 | ppm | depgraph)");
  return make_predictor(kind, n_items, /*markov1_laplace=*/0.1);
}

namespace {

// The workload lowerings (to_*_config, make_workload_chain) and the
// GroundedStreams layout live in sim/grounded.hpp — the netsim stepper
// (and through it the skpd daemon) must agree on them byte for byte
// with the drivers here.

std::unique_ptr<ReplacementPolicy> make_runtime_policy(ReplacementKind kind,
                                                       std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::LRU: return make_lru();
    case ReplacementKind::FIFO: return make_fifo();
    case ReplacementKind::LFU: return make_lfu();
    case ReplacementKind::Random: return make_random(seed);
  }
  return make_lru();
}

// ---- Spec sections (contract in runtime.hpp) ----------------------------

template <auto... Members>
bool at_default(const SimSpec& spec) {
  static const SimSpec defaults;
  return ((spec.*Members == defaults.*Members) && ...);
}

// One row per SpecSection: the fields it holds, as diagnostics name
// them, and whether a spec leaves them all at their defaults.
struct SectionFields {
  SpecSection section;
  const char* fields;
  bool (*at_default)(const SimSpec&);
};

constexpr SectionFields kSections[] = {
    {SpecSection::Net, "bandwidth/latency",
     at_default<&SimSpec::bandwidth, &SimSpec::latency>},
    {SpecSection::Scenario, "replacement/pr_planning",
     at_default<&SimSpec::replacement, &SimSpec::pr_planning>},
    {SpecSection::Sized, "sized_capacity/size_per_r/size_lo/size_hi",
     at_default<&SimSpec::sized_capacity, &SimSpec::size_per_r,
                &SimSpec::size_lo, &SimSpec::size_hi>},
    {SpecSection::Des, "link_schedule/fault/overload/deadline",
     at_default<&SimSpec::link_schedule, &SimSpec::fault,
                &SimSpec::overload, &SimSpec::deadline>},
    {SpecSection::MultiClient, "multi_client",
     at_default<&SimSpec::multi_client>},
    {SpecSection::Warmup, "warmup", at_default<&SimSpec::warmup>},
    {SpecSection::PredictorWarmup, "predictor_warmup",
     at_default<&SimSpec::predictor_warmup>},
};

template <typename... Sections>
constexpr unsigned reads(Sections... sections) {
  return (0u | ... | (1u << static_cast<unsigned>(sections)));
}

// ---- Drivers ------------------------------------------------------------
// prefetch_only, prefetch_cache and trace_replay live in their own files
// (sim/prefetch_only.hpp, sim/prefetch_cache.hpp, sim/trace_replay.hpp).

SimResult run_netsim_des_driver(const SimSpec& spec) {
  // The whole decision path — validation, stream layout, per-cycle loop
  // body — lives in sim/netsim_stepper.hpp, shared with the skpd daemon.
  // Keeping this driver a trivial drain of the stepper is what makes
  // "daemon-served sessions match the in-process golden" structural.
  NetsimStepper stepper(spec);
  while (!stepper.done()) stepper.step();
  return stepper.result();
}

SimResult run_scenario_driver(const SimSpec& spec) {
  // The scenario pipeline consumes the net only as a static r catalog;
  // it has no clock for the DES section to vary against.
  require_read_sections(spec, SimDriverKind::Scenario);
  // Without Pr-arbitration the replacement policy picks every victim,
  // so there is no Pr tie for a sub-arbitration to break.
  SKP_REQUIRE(spec.pr_planning || spec.sub == SubArbitration::None,
              "the scenario driver sub-arbitrates only Pr-arbitration "
              "victims; set pr_planning or use sub none");
  const std::size_t n = spec.workload.n_items;
  GroundedStreams g = ground_streams(spec);
  const std::vector<double> r = g.catalog.retrieval_times(g.net);

  const MaterializedWorkload mat =
      materialize_workload(spec.workload, spec.requests, g.build, g.walk);

  auto predictor = make_runtime_predictor(spec.predictor, n);
  auto policy =
      make_runtime_policy(spec.replacement, g.root.split(4).next_u64());
  SlotCache cache(n, spec.cache_size);
  FreqTracker freq(n);  // Pr-arbitration sub-score substrate
  const PrefetchEngine engine(engine_config(spec));

  SimResult res;
  SimMetrics& m = res.metrics;
  constexpr double kEps = 1e-9;
  // Borrowed-view planning (allocation-free across cycles): P lives in
  // the scratch buffer, r in the catalog vector above.
  PlanScratch scratch;
  PrefetchPlan plan;
  std::vector<ItemId> support;
  for (std::size_t i = 0; i < mat.cycles.size(); ++i) {
    const ItemId item = mat.cycles[i].item;
    const double v = mat.cycles[i].viewing_time;
    std::optional<ItemId> oracle;
    if (spec.policy == PrefetchPolicy::Perfect) oracle = item;

    if (i >= spec.predictor_warmup) {
      // Shortlist: drop sliver mass; without Pr-arbitration planning
      // additionally zero cached items (planning over N \ C, Section 5 —
      // the Figure-6 planner does its own N \ C filtering). Every entry
      // off the support is +0.0, so summing the support in ascending
      // order gives the dense sum.
      predictor->predict_filtered_into(spec.predictor_min_prob, scratch.P,
                                       support);
      double mass = 0.0;
      for (const ItemId j : support) {
        double& p = scratch.P[static_cast<std::size_t>(j)];
        if (!spec.pr_planning && cache.contains(j)) p = 0.0;
        mass += p;
      }
      if (mass > 0.0) {
        const InstanceView inst(scratch.P, r, v);
        if (spec.pr_planning) {
          engine.plan_with_cache_cached(inst, cache, &freq, PlanMemo{},
                                        scratch, plan, oracle, support);
        } else {
          engine.plan(inst, scratch, plan, oracle);
        }
        m.solver_nodes += plan.solver_nodes;
        // Bandwidth budget (Eq. 1): every fetch but the last must finish
        // within v; plain KP may not stretch at all.
        double prefix = 0.0;
        for (std::size_t k = 0; k + 1 < plan.fetch.size(); ++k) {
          prefix += r[Instance::idx(plan.fetch[k])];
        }
        double budget_used = prefix;
        if (spec.policy == PrefetchPolicy::KP && !plan.fetch.empty()) {
          budget_used += r[Instance::idx(plan.fetch.back())];
        }
        if (budget_used > v + kEps) {
          ++res.budget_violations;
          res.worst_budget_overrun =
              std::max(res.worst_budget_overrun, budget_used - v);
        }
        if (!plan.fetch.empty()) ++res.plans;
        if (spec.pr_planning) {
          // Figure-6 execution: each admitted fetch claims its
          // Pr-arbitrated victim once the cache is full; the replacement
          // policy's books are kept consistent so demand misses still
          // work on accurate state.
          std::size_t victim_idx = 0;
          for (const ItemId f : plan.fetch) {
            if (cache.full()) {
              const ItemId victim = plan.evict[victim_idx++];
              cache.erase(victim);
              policy->on_evict(victim);
            }
            cache.insert(f);
            policy->on_insert(f);
            ++m.prefetch_fetches;
            m.prefetch_network_time += r[Instance::idx(f)];
          }
        } else {
          for (const ItemId f : plan.fetch) {
            if (cache.contains(f)) continue;  // zero-profit filler
            if (cache.full()) {
              const ItemId victim = policy->choose_victim(cache);
              cache.erase(victim);
              policy->on_evict(victim);
            }
            cache.insert(f);
            policy->on_insert(f);
            ++m.prefetch_fetches;
            m.prefetch_network_time += r[Instance::idx(f)];
          }
        }
      }
    }

    if (cache.contains(item)) {
      ++m.hits;
      policy->on_access(item);
    } else {
      ++m.demand_fetches;
      m.demand_network_time += r[Instance::idx(item)];
      access_with_policy(cache, *policy, item);
    }
    ++m.requests;
    freq.record(item);
    predictor->observe(item);
  }
  m.network_time = m.prefetch_network_time + m.demand_network_time;
  return res;
}

// Each row's sections are exactly the ones its driver reads.
constexpr SimDriver kDrivers[] = {
    {SimDriverKind::PrefetchOnly, "prefetch_only", &run_prefetch_only,
     reads()},
    {SimDriverKind::PrefetchCache, "prefetch_cache", &run_prefetch_cache,
     reads(SpecSection::Sized, SpecSection::Warmup)},
    {SimDriverKind::TraceReplay, "trace_replay", &run_trace_replay,
     reads(SpecSection::Warmup)},
    {SimDriverKind::NetsimDes, "netsim_des", &run_netsim_des_driver,
     reads(SpecSection::Net, SpecSection::Des,
           SpecSection::PredictorWarmup)},
    {SimDriverKind::Scenario, "scenario", &run_scenario_driver,
     reads(SpecSection::Net, SpecSection::Scenario,
           SpecSection::PredictorWarmup)},
    {SimDriverKind::MultiClientDes, "multi_client", &run_multi_client,
     reads(SpecSection::Net, SpecSection::Des, SpecSection::MultiClient,
           SpecSection::PredictorWarmup)},
    {SimDriverKind::SkpdLoopback, "skpd_loopback", &run_skpd_loopback_driver,
     reads(SpecSection::Net, SpecSection::Des,
           SpecSection::PredictorWarmup)},
};

}  // namespace

// ---- Registry -----------------------------------------------------------

std::span<const SimDriver> driver_registry() { return kDrivers; }

const SimDriver& find_driver(SimDriverKind kind) {
  for (const SimDriver& d : kDrivers) {
    if (d.kind == kind) return d;
  }
  SKP_REQUIRE(false, "unregistered driver kind");
  return kDrivers[0];
}

const SimDriver* find_driver(std::string_view name) {
  for (const SimDriver& d : kDrivers) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::string drivers_reading(SpecSection section) {
  std::string names;
  for (const SimDriver& d : kDrivers) {
    if (!d.reads(section)) continue;
    names += (names.empty() ? "" : ", ") + std::string(d.name);
  }
  return names;
}

void require_read_sections(const SimSpec& spec, SimDriverKind kind) {
  const SimDriver& driver = find_driver(kind);
  for (const SectionFields& s : kSections) {
    SKP_REQUIRE(driver.reads(s.section) || s.at_default(spec),
                driver.name << " does not read " << s.fields
                            << " (read by " << drivers_reading(s.section)
                            << ")");
  }
}

SimResult run_sim(const SimSpec& spec) {
  SKP_REQUIRE(spec.workload.n_items >= 2, "n_items must be >= 2");
  SKP_REQUIRE(spec.requests >= 1, "requests must be >= 1");
  return find_driver(spec.driver).run(spec);
}

// ---- String forms -------------------------------------------------------

const char* to_string(SimDriverKind kind) {
  return find_driver(kind).name;
}

const char* to_string(SimWorkloadKind kind) {
  return token_of<SimWorkloadKind>(kWorkloadTokens, kind);
}

const char* to_string(ReplacementKind kind) {
  return token_of<ReplacementKind>(kReplacementTokens, kind);
}

const char* to_string(PredictorKind kind) {
  return token_of<PredictorKind>(kPredictorTokens, kind);
}

const char* policy_token(PrefetchPolicy policy) {
  return token_of<PrefetchPolicy>(kPolicyTokens, policy);
}

const char* sub_token(SubArbitration sub) {
  return token_of<SubArbitration>(kSubTokens, sub);
}

const char* delta_token(DeltaRule rule) {
  return token_of<DeltaRule>(kDeltaTokens, rule);
}

std::optional<SimDriverKind> parse_driver_kind(std::string_view name) {
  if (const SimDriver* d = find_driver(name)) return d->kind;
  return std::nullopt;
}

std::optional<SimWorkloadKind> parse_workload_kind(std::string_view name) {
  return parse_token<SimWorkloadKind>(kWorkloadTokens, name);
}

std::optional<ReplacementKind> parse_replacement_kind(
    std::string_view name) {
  return parse_token<ReplacementKind>(kReplacementTokens, name);
}

std::optional<PrefetchPolicy> parse_policy(std::string_view name) {
  return parse_token<PrefetchPolicy>(kPolicyTokens, name);
}

std::optional<SubArbitration> parse_sub_arbitration(std::string_view name) {
  return parse_token<SubArbitration>(kSubTokens, name);
}

std::optional<DeltaRule> parse_delta_rule(std::string_view name) {
  return parse_token<DeltaRule>(kDeltaTokens, name);
}

std::optional<PredictorKind> parse_predictor_kind(std::string_view name) {
  return parse_token<PredictorKind>(kPredictorTokens, name);
}

std::optional<ProbMethod> parse_prob_method(std::string_view name) {
  return parse_token<ProbMethod>(kProbMethodTokens, name);
}

// ---- Workload materialization -------------------------------------------

MaterializedWorkload materialize_workload(const SimWorkload& w,
                                          std::size_t requests, Rng& build,
                                          Rng& walk) {
  SKP_REQUIRE(w.n_items >= 2, "n_items must be >= 2");
  MaterializedWorkload out;
  out.n_items = w.n_items;
  out.cycles.reserve(requests);
  switch (w.kind) {
    case SimWorkloadKind::Markov:
    case SimWorkloadKind::MarkovDrift:
    case SimWorkloadKind::Zipf:
    case SimWorkloadKind::Adversarial: {
      // A walk needs only the sparse chain.
      const MarkovSourceConfig mcfg = to_markov_config(w);
      MarkovChain chain = make_workload_chain(w, build);
      Rng drift_rng = build.split(kPrefetchCacheDriftSalt);
      const std::size_t period =
          w.kind == SimWorkloadKind::MarkovDrift ? w.drift_period : 0;
      std::size_t state = 0;
      for (std::size_t i = 0; i < requests; ++i) {
        if (period != 0 && i != 0 && i % period == 0) {
          chain.redraw_transitions(mcfg, drift_rng);
        }
        const double v = chain.viewing_time(state);
        state = chain.sample_from(state, walk);
        out.cycles.push_back({static_cast<ItemId>(state), v});
      }
      out.retrieval_times.assign(chain.retrieval_times().begin(),
                                 chain.retrieval_times().end());
      break;
    }
    case SimWorkloadKind::Iid: {
      const std::vector<double> P =
          w.method == ProbMethod::Skewy
              ? skewy_probabilities(w.n_items, build, w.skew_exponent)
              : flat_probabilities(w.n_items, build);
      const double v = w.iid_viewing_time;
      SKP_REQUIRE(v >= 0.0, "viewing time v = " << v << " must be >= 0");
      for (std::size_t i = 0; i < requests; ++i) {
        out.cycles.push_back({sample_categorical(P, walk), v});
      }
      // Catalog retrieval times drawn after the row so consumers that
      // re-ground r elsewhere (scenario/netsim catalogs) see the same P.
      out.retrieval_times.resize(w.n_items);
      for (auto& r : out.retrieval_times) {
        r = build.uniform_time(w.r_lo, w.r_hi, w.integer_times);
      }
      break;
    }
    case SimWorkloadKind::TraceText: {
      const MarkovChain chain(to_markov_config(w), build);
      Trace recorded(w.n_items,
                     std::vector<double>(chain.retrieval_times().begin(),
                                         chain.retrieval_times().end()));
      std::size_t state = 0;
      for (std::size_t i = 0; i < requests; ++i) {
        const double v = chain.viewing_time(state);
        state = chain.sample_from(state, walk);
        recorded.append(static_cast<ItemId>(state), v);
      }
      std::stringstream io;
      recorded.save(io);
      const Trace replayed = Trace::load(io);
      out.cycles.assign(replayed.records().begin(),
                        replayed.records().end());
      out.retrieval_times = replayed.retrieval_times();
      break;
    }
  }
  return out;
}

// ---- simctl substrate ---------------------------------------------------

bool shard_owns(std::size_t index, std::size_t shard_index,
                std::size_t shard_count) {
  SKP_REQUIRE(shard_count >= 1, "shard count must be >= 1");
  SKP_REQUIRE(shard_index < shard_count,
              "shard index " << shard_index << " out of range 0.."
                             << shard_count - 1);
  return index % shard_count == shard_index;
}

std::vector<std::string> sim_csv_header() {
  return {
      "index",          "driver",
      "workload",       "n_items",
      "policy",         "sub",
      "delta",          "predictor",
      "min_prob",       "predictor_warmup",
      "replacement",    "pr_planning",
      "cache_size",     "sized_capacity",
      "size_per_r",     "requests",
      "warmup",         "seed",
      "bandwidth",      "latency",
      "threshold",      "drift_period",
      "clients",        "phase_align",
      "churn_period",   "link_phases",
      "plan_cache",
      "hit_rate",       "mean_T",
      "net_per_req",    "prefetch_net",
      "demand_net",     "hits",
      "resident_hits",  "demand",
      "prefetched",
      "wasted",         "solver_nodes",
      "plan_hit_rate",  "select_hit_rate",
      "plans",          "budget_violations",
      "link_util",      "over_viewing",
      "churn_events",   "fail_rate",
      "stall_rate",     "timeout",
      "retry_max",      "overload",
      "deadline",       "failed",
      "fault_retries",  "abandoned",
      "rung_transitions", "max_rung",
      "degraded",       "deadline_hits",
  };
}

void append_sim_csv_row(CsvWriter& writer, std::size_t index,
                        const SimSpec& spec, const SimResult& result) {
  const SimMetrics& m = result.metrics;
  // Spec cells record the values actually in force, not inert struct
  // defaults: a field no simulator consulted (the slot size of a sized
  // or flush-per-request run, the shortlist floor of an oracle run, the
  // drift period of a static workload) prints as its zero so the sweep
  // document never claims a parameter study that did not happen.
  const bool slot_cache = spec.driver != SimDriverKind::PrefetchOnly &&
                          spec.sized_capacity == 0.0;
  const bool learned = spec.predictor != PredictorKind::Oracle;
  const std::size_t drift_period =
      spec.workload.kind == SimWorkloadKind::MarkovDrift
          ? spec.workload.drift_period
          : 0;
  const SimDriver& driver = find_driver(spec.driver);
  const bool multi = driver.reads(SpecSection::MultiClient);
  const std::size_t clients = multi ? spec.multi_client.clients : 0;
  const double phase_align = multi ? spec.multi_client.phase_align : 0.0;
  const double churn_period = multi ? spec.multi_client.churn_period : 0.0;
  const bool des = driver.reads(SpecSection::Des);
  const std::size_t link_phases = des ? spec.link_schedule.size() : 0;
  const bool faulty = des && spec.fault.enabled();
  writer.row_of(
      index, to_string(spec.driver), to_string(spec.workload.kind),
      spec.workload.n_items, policy_token(spec.policy),
      sub_token(spec.sub), delta_token(spec.delta_rule),
      to_string(spec.predictor),
      learned ? spec.predictor_min_prob : 0.0,
      spec.predictor_warmup, to_string(spec.replacement),
      spec.pr_planning ? 1 : 0, slot_cache ? spec.cache_size : 0,
      spec.sized_capacity,
      spec.size_per_r, spec.requests, spec.warmup, spec.seed,
      spec.bandwidth, spec.latency,
      spec.min_profit_threshold, drift_period,
      clients, phase_align, churn_period, link_phases,
      spec.use_plan_cache ? 1 : 0, m.hit_rate(),
      m.mean_access_time(),
      m.network_time_per_request(), m.prefetch_network_time,
      m.demand_network_time, m.hits, result.resident_hits(),
      m.demand_fetches, m.prefetch_fetches,
      m.wasted_prefetches, m.solver_nodes,
      result.plan_cache.plans.hit_rate(),
      result.plan_cache.selections.hit_rate(), result.plans,
      result.budget_violations, result.link_utilization,
      result.over_viewing_time, result.churn_events,
      faulty ? spec.fault.fail_rate : 0.0,
      faulty ? spec.fault.stall_rate : 0.0,
      faulty ? spec.fault.timeout : 0.0,
      faulty ? spec.fault.retry.max_attempts : 0,
      des && spec.overload.enabled ? 1 : 0, des ? spec.deadline : 0.0,
      result.fault.failed_transfers, result.fault.retries,
      result.fault.abandoned, result.overload.transitions,
      result.overload.max_rung, result.overload.degraded_requests,
      result.deadline_hits);
}

std::vector<std::string> per_client_csv_header() {
  return {
      "index",      "client",        "requests",
      "hit_rate",   "mean_T",        "net_per_req",
      "hits",       "resident_hits", "demand",
      "prefetched", "wasted",        "solver_nodes",
  };
}

void append_per_client_csv_rows(CsvWriter& writer, std::size_t index,
                                const SimSpec& spec,
                                const SimResult& result) {
  (void)spec;
  for (std::size_t c = 0; c < result.per_client.size(); ++c) {
    const SimMetrics& m = result.per_client[c];
    writer.row_of(index, c, m.requests, m.hit_rate(),
                  m.mean_access_time(), m.network_time_per_request(),
                  m.hits, m.requests - m.demand_fetches, m.demand_fetches,
                  m.prefetch_fetches, m.wasted_prefetches, m.solver_nodes);
  }
}

std::string merge_sharded_csv(const std::vector<std::string>& shards,
                              const std::vector<std::string>& names) {
  SKP_REQUIRE(!shards.empty(), "no shard documents to merge");
  SKP_REQUIRE(names.empty() || names.size() == shards.size(),
              "shard name list must match the document list");
  const auto shard_name = [&](std::size_t i) {
    return names.empty() ? "shard document #" + std::to_string(i + 1)
                         : names[i];
  };
  const auto parse_field = [](const std::string& text, const char* what) {
    const std::optional<std::uint64_t> value = parse_digits_u64(text);
    SKP_REQUIRE(value.has_value(),
                "non-numeric row " << what << ": " << text);
    return static_cast<std::size_t>(*value);
  };
  std::string header;
  // A per-client companion document keys on (index, client); the main
  // sweep document keys on index alone (client fixed at 0).
  bool per_client = false;
  // (index, client) -> (row text, source document) — the source lets a
  // collision diagnostic name both inputs, the usual symptom of merging
  // the same shard file twice or mixing overlapping shard schemes.
  std::map<std::pair<std::size_t, std::size_t>,
           std::pair<std::string, std::size_t>>
      rows;
  for (std::size_t d = 0; d < shards.size(); ++d) {
    std::istringstream is(shards[d]);
    std::string line;
    SKP_REQUIRE(static_cast<bool>(std::getline(is, line)),
                "empty shard document: " << shard_name(d));
    if (header.empty()) {
      header = line;
      per_client = header.rfind("index,client,", 0) == 0;
    } else {
      SKP_REQUIRE(line == header, "shard header mismatch in "
                                      << shard_name(d) << ": " << line);
    }
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      // simctl marks a signal-interrupted sweep with a "# interrupted
      // at spec N" trailer. Such a document is a valid PARTIAL record
      // for a human, but merging it would silently produce an
      // incomplete sweep — reject it and make the operator re-run the
      // shard.
      SKP_REQUIRE(line[0] != '#',
                  "shard " << shard_name(d)
                           << " is an interrupted partial (" << line
                           << ") — re-run that shard before merging");
      const std::size_t comma = line.find(',');
      SKP_REQUIRE(comma != std::string::npos && comma > 0,
                  "malformed shard row: " << line);
      const std::size_t index =
          parse_field(line.substr(0, comma), "index");
      std::size_t client = 0;
      if (per_client) {
        const std::size_t comma2 = line.find(',', comma + 1);
        SKP_REQUIRE(comma2 != std::string::npos && comma2 > comma + 1,
                    "malformed per-client row: " << line);
        client = parse_field(
            line.substr(comma + 1, comma2 - comma - 1), "client");
      }
      const auto [it, inserted] =
          rows.emplace(std::pair(index, client), std::pair(line, d));
      SKP_REQUIRE(inserted, "duplicate spec index "
                                << index
                                << (per_client ? " client " +
                                                     std::to_string(client)
                                               : std::string())
                                << " (in " << shard_name(d)
                                << ", first seen in "
                                << shard_name(it->second.second)
                                << ") — overlapping shard inputs?");
    }
  }
  std::string out = header;
  out += '\n';
  std::size_t expect = 0;
  std::size_t expect_client = 0;
  for (const auto& [key, row] : rows) {
    if (!per_client) {
      SKP_REQUIRE(key.first == expect,
                  "missing row index " << expect << " (next present: "
                                       << key.first << ")");
      ++expect;
    } else if (key.first == expect && key.second == expect_client) {
      // Next client row of the current spec.
      ++expect_client;
    } else if (key.first == expect + 1 && key.second == 0 &&
               expect_client > 0) {
      // First client row of the next spec.
      expect = key.first;
      expect_client = 1;
    } else {
      SKP_REQUIRE(false, "per-client rows not dense: expected index "
                             << expect << " client " << expect_client
                             << " or index " << expect + 1
                             << " client 0, got index " << key.first
                             << " client " << key.second);
    }
    out += row.first;
    out += '\n';
  }
  return out;
}

}  // namespace skp
