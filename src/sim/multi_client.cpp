#include "sim/multi_client.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "cache/cache.hpp"
#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "sim/grounded.hpp"
#include "sim/resident_set.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

namespace {

// Per-client simulation state. Caches and request streams are private;
// the link and the retrieval catalog are shared.
struct Client {
  std::optional<MarkovChain> chain;      // empty for learned clients
  std::unique_ptr<Predictor> predictor;  // null for oracle clients
  PredictorKind kind = PredictorKind::Oracle;
  std::vector<TraceRecord> cycles;       // learned drive script
  // The planning row: the predictor's filtered row, or an oracle
  // client's scattered chain row (+0.0 off the row of `state` between
  // cycles; each planning cycle clears its row after planning, and a
  // prefix cycle clears the row a demand victim left).
  std::vector<double> P;
  std::vector<ItemId> support;           // learned row's nonzero entries
  std::optional<ResidentSet<SlotCache>> book;
  Rng walk{0};
  std::size_t state = 0;
  std::size_t served = 0;
  std::size_t quota = 0;        // cycles this client must serve
  double churn_period = 0.0;    // 0 = never churns
  double churn_downtime = 0.0;
  double next_churn_at = 0.0;   // first departure boundary
  SimMetrics metrics;
  std::vector<double> completion;      // per-item transfer completion time
  // Per-client planning buffers (clients are stepped by one DES thread,
  // but each keeps its own scratch so cycles never allocate).
  PlanScratch scratch;
  PrefetchPlan plan;
  // Per-client memoization: chains — and so states and orders — are
  // private, and learned clients build no tier (make_memo_tiers).
  MemoTiers memo;
};

}  // namespace

SimResult run_multi_client(const SimSpec& spec) {
  require_read_sections(spec, SimDriverKind::MultiClientDes);
  const MultiClientSpec& mc = spec.multi_client;
  SKP_REQUIRE(mc.clients >= 1, "multi_client needs at least one client");
  SKP_REQUIRE(mc.overrides.empty() || mc.overrides.size() == mc.clients,
              "multi_client overrides must have one entry per client "
              "(got " << mc.overrides.size() << " for " << mc.clients
                      << " clients)");
  SKP_REQUIRE(mc.link_speedup > 0.0, "link_speedup must be positive");
  SKP_REQUIRE(spec.cache_size >= 1, "cache_size must be >= 1");
  SKP_REQUIRE(mc.phase_align >= 0.0 && mc.phase_align <= 1.0,
              "phase_align must be in [0, 1]");
  SKP_REQUIRE(mc.churn_period >= 0.0, "churn_period must be >= 0");
  SKP_REQUIRE(mc.churn_downtime >= 0.0, "churn_downtime must be >= 0");
  SKP_REQUIRE(spec.deadline >= 0.0, "deadline must be >= 0");
  validate_link_schedule(spec.link_schedule);
  validate_fault_spec(spec.fault);

  const std::size_t n = spec.workload.n_items;
  const GroundedStreams g = ground_streams(spec);
  const std::vector<double> r = g.catalog.retrieval_times(g.net);
  const PrefetchEngine engine(engine_config(spec));

  std::vector<Client> clients(mc.clients);
  for (std::size_t c = 0; c < mc.clients; ++c) {
    Client& cl = clients[c];
    const MultiClientOverride* ov =
        mc.overrides.empty() ? nullptr : &mc.overrides[c];
    const SimWorkload& w = ov && ov->workload ? *ov->workload
                                              : spec.workload;
    SKP_REQUIRE(w.n_items == n,
                "multi_client clients must share n_items (one grounded "
                "catalog serves every client)");
    cl.kind = ov && ov->predictor ? *ov->predictor : spec.predictor;
    cl.quota = ov && ov->requests ? *ov->requests : spec.requests;
    SKP_REQUIRE(cl.quota >= 1, "client " << c << " quota must be >= 1");
    cl.churn_period =
        ov && ov->churn_period ? *ov->churn_period : mc.churn_period;
    cl.churn_downtime =
        ov && ov->churn_downtime ? *ov->churn_downtime : mc.churn_downtime;
    SKP_REQUIRE(cl.churn_period >= 0.0 && cl.churn_downtime >= 0.0,
                "client " << c << ": churn overrides must be >= 0");
    cl.next_churn_at = cl.churn_period;

    // The client's private streams (layout in the header).
    const std::uint64_t seed = ov && ov->seed ? *ov->seed : spec.seed;
    Rng root(Rng(seed).split(1000 + c).next_u64());
    Rng build = root.split(1);
    cl.walk = root.split(2);
    if (cl.kind == PredictorKind::Oracle) {
      SKP_REQUIRE(w.kind == SimWorkloadKind::Markov,
                  "oracle multi_client clients walk a markov chain; "
                  "learned predictors unlock iid/zipf/drift/trace/"
                  "adversarial workloads");
      cl.chain.emplace(to_markov_config(w), build);
    } else {
      cl.cycles = materialize_workload(w, cl.quota, build, cl.walk).cycles;
    }
    cl.book.emplace(SlotCache(n, spec.cache_size), r,
                    engine.config().arbitration);
    cl.completion.assign(n, 0.0);
    // Memoization needs the state key to determine the planning inputs;
    // phase alignment blends the viewing time by cycle INDEX, which
    // breaks that promise, so flash-crowd worlds plan unmemoized.
    cl.memo = make_memo_tiers(spec.use_plan_cache && mc.phase_align == 0.0,
                              spec.plan_cache_capacity,
                              engine.config_digest(),
                              cl.kind != PredictorKind::Oracle, spec.sub, n);
    if (cl.kind != PredictorKind::Oracle) {
      cl.predictor = make_runtime_predictor(cl.kind, n);
    }
    cl.P.assign(n, 0.0);
  }

  // Herd schedule for flash crowds: one shared per-cycle viewing-time
  // sequence, drawn from its own stream (salt 999 — distinct from every
  // client's split(1000+c)) so enabling alignment never perturbs a client
  // stream. Cycle k of every client blends toward herd[k].
  std::vector<double> herd;
  if (mc.phase_align > 0.0) {
    std::size_t max_quota = 0;
    for (const Client& cl : clients) {
      max_quota = std::max(max_quota, cl.quota);
    }
    Rng herd_rng = Rng(spec.seed).split(999);
    herd.reserve(max_quota);
    for (std::size_t i = 0; i < max_quota; ++i) {
      herd.push_back(herd_rng.uniform_time(spec.workload.v_lo,
                                           spec.workload.v_hi,
                                           spec.workload.integer_times));
    }
  }

  EventQueue clock;
  double link_free_at = 0.0;
  double link_busy = 0.0;
  double makespan = 0.0;
  std::uint64_t plans_fired = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t deadline_hits = 0;

  // Robustness layer. Fault draws come from one link-level stream
  // (dedicated salt, consumed in link-commit order) so arming the fault
  // model never perturbs a client's workload or decision streams. The
  // overload controller is fleet-wide: the link is shared, so pressure
  // is a system property.
  Rng fault_rng = Rng(spec.seed).split(kFaultStreamSalt);
  FaultStats fault_stats;
  OverloadController overload(spec.overload);

  // Link occupancy of a transfer of base cost `base` (an item's r) that
  // starts at `start`. With a link schedule the phase at transfer START
  // re-prices it (the no-abort rule holds: a committed transfer keeps its
  // duration).
  auto transfer_duration = [&](double base, double start) {
    double cost = base;
    if (!spec.link_schedule.empty()) {
      const LinkPhase& phase = link_phase_at(spec.link_schedule, start);
      cost = phase.latency + base / phase.bandwidth;
    }
    return cost / mc.link_speedup;
  };

  // Serializes a transfer on the shared link; returns completion time.
  auto enqueue = [&](double base) {
    const double start = std::max(clock.now(), link_free_at);
    const double duration = transfer_duration(base, start);
    link_free_at = start + duration;
    link_busy += duration;
    return link_free_at;
  };

  // Prefetch path through the fault model (the reliable `enqueue` when
  // faults are disarmed). Each attempt is re-priced at its own start so
  // link phases charge the rate in force when it runs; backoff gaps idle
  // the link (only attempt occupancy counts toward link_busy). nullopt =
  // retry budget exhausted, transfer abandoned.
  auto enqueue_prefetch = [&](double base) -> std::optional<double> {
    if (!spec.fault.enabled()) return enqueue(base);
    const double queue_start = std::max(clock.now(), link_free_at);
    const FaultTransfer ft = run_faulty_transfer(
        spec.fault, fault_rng, fault_stats, queue_start,
        [&](double attempt_start) {
          return transfer_duration(base, attempt_start);
        });
    link_free_at = ft.finish;
    link_busy += ft.busy;
    if (!ft.delivered) return std::nullopt;
    return ft.finish;
  };

  // Flash-crowd blend: pulls cycle k's viewing time toward the shared
  // herd schedule; identity when alignment is off.
  auto blend = [&](double v, std::size_t k) {
    if (mc.phase_align == 0.0) return v;
    return (1.0 - mc.phase_align) * v + mc.phase_align * herd[k];
  };

  // One viewing-and-request cycle for client c, starting at clock.now().
  // Defined as a std::function so completions can reschedule it.
  std::function<void(std::size_t)> start_cycle = [&](std::size_t c) {
    Client& cl = clients[c];
    if (cl.served >= cl.quota) {
      makespan = std::max(makespan, clock.now());
      return;
    }
    const double t0 = clock.now();

    // Plan against cl.P and its support: a learned client replays its
    // scripted cycle on the predictor's row; an oracle client scatters
    // its state's ground-truth row, then samples the next request.
    // Degrading only zeroes entries, so the support still covers P.
    // During the observe-only predictor_warmup prefix every client plans
    // against the zero row with an empty support, so the planner fetches
    // nothing without scanning the catalog; an oracle client also passes
    // no memo key and, under Perfect, no next item (netsim_des's prefix).
    const bool planning = cl.served >= spec.predictor_warmup;
    double v = 0.0;
    ItemId next = 0;
    std::span<const ItemId> support;
    std::optional<ItemId> oracle;
    if (cl.predictor) {
      const TraceRecord& rec = cl.cycles[cl.served];
      v = blend(rec.viewing_time, cl.served);
      next = rec.item;
      if (planning) {
        cl.predictor->predict_filtered_into(spec.predictor_min_prob, cl.P,
                                            cl.support);
        overload.degrade_row(cl.P);
      }
      support = cl.support;
      if (spec.policy == PrefetchPolicy::Perfect) oracle = next;
    } else {
      v = blend(cl.chain->viewing_time(cl.state), cl.served);
      if (planning) {
        cl.chain->scatter_row(cl.state, cl.P);
        support = cl.chain->successors(cl.state);
        overload.degrade_row(cl.P);
      } else {
        // The last demand victim may have left this state's row.
        cl.chain->clear_row(cl.state, cl.P);
      }
      next = static_cast<ItemId>(cl.chain->sample_from(cl.state, cl.walk));
      if (planning && spec.policy == PrefetchPolicy::Perfect) oracle = next;
    }
    engine.plan_with_cache_cached(
        InstanceView(cl.P, r, v), cl.book->cache(), &cl.book->freq(),
        planning ? cl.memo.memo(cl.state) : PlanMemo{}, cl.scratch, cl.plan,
        oracle, support, cl.book->eviction_order());
    if (cl.chain && planning) cl.chain->clear_row(cl.state, cl.P);
    if (!cl.plan.fetch.empty()) ++plans_fired;
    cl.book->execute(cl.plan, &cl.metrics, [&](ItemId f) {
      const std::optional<double> done =
          enqueue_prefetch(r[Instance::idx(f)]);
      if (done) cl.completion[Instance::idx(f)] = *done;
      return done.has_value();
    });
    cl.metrics.solver_nodes += cl.plan.solver_nodes;

    const double t_req = t0 + v;
    clock.schedule_at(t_req, [&, c, next, v, t_req] {
      Client& me = clients[c];
      double T = 0.0;
      if (me.book->cache().contains(next)) {
        T = std::max(0.0, me.completion[Instance::idx(next)] - t_req);
      } else {
        // Demand fetch queues behind every committed transfer — the
        // paper's no-abort assumption, now spanning all clients. The
        // victim is chosen under the next state's oracle row, or for a
        // learned client under the row in force this cycle (its
        // chainless analogue). The oracle row stays scattered: it is the
        // next cycle's planning row, which that cycle clears, or which a
        // prefix cycle clears before it plans against no row.
        me.book->admit_demand(next, &me.metrics, [&] {
          if (me.predictor) return InstanceView(me.P, r, v);
          const auto s = static_cast<std::size_t>(next);
          me.chain->scatter_row(s, me.P);
          return InstanceView(me.P, r, me.chain->viewing_time(s));
        });
        const double finish = enqueue(r[Instance::idx(next)]);
        me.completion[Instance::idx(next)] = finish;
        T = finish - t_req;
      }
      me.book->view(next);
      if (me.predictor) me.predictor->observe(next);
      me.metrics.access_time.add(T);
      ++me.metrics.requests;
      if (T == 0.0) ++me.metrics.hits;
      if (spec.deadline > 0.0 && T <= spec.deadline) ++deadline_hits;
      if (overload.observe(T)) {
        // Rung change: memoized plans were computed against the previous
        // rung's degraded rows, so the state-key promise just broke for
        // every client at once.
        const bool frozen =
            overload.rung() >= DegradationRung::kStrictAdmission;
        for (Client& other : clients) {
          other.memo.invalidate();
          other.memo.freeze(frozen);
        }
      }
      ++me.served;
      me.state = static_cast<std::size_t>(next);
      const double t_end = t_req + T;
      if (me.churn_period > 0.0 && t_end >= me.next_churn_at &&
          me.served < me.quota) {
        // Departure at the cycle boundary: the client walks away from its
        // cache (prefetched-but-unviewed residents count as wasted; any
        // in-flight transfer still completes — no-abort), forgets its
        // frequency book, cold-restarts its predictor, and retires its
        // plan memo. Chain state and private streams survive, so a
        // churning client never shifts a sibling's request trajectory.
        me.book->flush(&me.metrics);
        if (me.predictor) {
          me.predictor = make_runtime_predictor(me.kind, n);
        }
        me.memo.invalidate();
        ++churn_events;
        const double rejoin = t_end + me.churn_downtime;
        me.next_churn_at = rejoin + me.churn_period;
        clock.schedule_at(rejoin, [&, c] { start_cycle(c); });
      } else {
        // Next cycle begins when this request is served.
        clock.schedule_at(t_end, [&, c] { start_cycle(c); });
      }
    });
  };

  for (std::size_t c = 0; c < mc.clients; ++c) start_cycle(c);
  clock.run_all();
  makespan = std::max(makespan, clock.now());

  SimResult out;
  out.plans = plans_fired;
  out.churn_events = churn_events;
  out.link_utilization = makespan > 0.0 ? link_busy / makespan : 0.0;
  out.fault = fault_stats;
  out.overload = overload.stats();
  out.deadline_hits = deadline_hits;
  for (const Client& cl : clients) {
    out.per_client.push_back(cl.metrics);
    out.metrics.merge(cl.metrics);
    // Counter sums, never overwrites: the merged hit-rate must be
    // recomputable from summed hits/misses (a mean of per-client rates is
    // wrong under skewed client loads).
    out.plan_cache.merge(cl.memo.stats());
  }
  return out;
}

}  // namespace skp
