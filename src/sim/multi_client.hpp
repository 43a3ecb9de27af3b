// Multi-client distributed information system (extension).
//
// The paper analyses a single client; its title domain — distributed
// information systems — raises the obvious system-level question:
// speculative traffic from one client occupies the shared server link and
// delays everyone else's demand fetches. This simulator runs K clients,
// each with its own cache, prefetch engine and request stream, over ONE
// shared FIFO link (the server bottleneck), using the event queue
// substrate. Per the paper's Section-2 assumption, committed transfers
// are never aborted or preempted — a demand fetch queues behind
// everything already on the wire, including other clients' speculation.
//
// Clients come in two drive modes:
//  * oracle (default)  — each client walks its own Markov chain and plans
//    against the chain's ground-truth transition rows, with per-client
//    plan memoization (core/plan_cache.hpp);
//  * learned           — the client replays a scripted (item, viewing
//    time) cycle list (or a chain walk materialized at setup) and plans
//    against its own online predictor's rows, mirroring the netsim_des
//    learned branch. Plan memoization is bypassed — the predictor's state
//    changes on every observation, so no context key holds.
//
// The per-client override vector (chain shape / seed / predictor /
// scripted cycles) is what the unified runtime's `multi_client` driver
// (sim/runtime.hpp, SimSpec::multi_client) assembles; homogeneous clients
// need no overrides. bench/contention sweeps client count x prefetch
// threshold and shows the congestion collapse of unthrottled speculation
// — the system-level version of the Section-6 network-usage concern.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/overload.hpp"
#include "core/prefetch_engine.hpp"
#include "sim/fault.hpp"
#include "sim/link_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/prefetch_cache.hpp"  // PredictorKind
#include "workload/markov_source.hpp"
#include "workload/trace.hpp"  // TraceRecord

namespace skp {

struct MultiClientConfig {
  std::size_t n_clients = 4;
  // Each client walks an independent chain drawn with these parameters
  // (items are per-client; the shared resource is the link, not the data).
  MarkovSourceConfig source;
  // The shared link serves one transfer at a time; a transfer of item i
  // occupies it for r_i / speedup time units.
  double link_speedup = 1.0;
  std::size_t cache_size = 10;
  EngineConfig engine;
  std::size_t requests_per_client = 2'000;
  std::uint64_t seed = 1;
  // Per-client plan memoization (core/plan_cache.hpp): each oracle-mode
  // client owns the tiers make_memo_tiers builds for it (chains are
  // per-client) — a selection tier and a canonical-order table, plus a
  // plan tier unless LFU/DS sub-arbitration is on — so the
  // single-threaded DES stays deterministic. Bit-identical on or off; a
  // no-op for learned clients, which build no tier.
  bool use_plan_cache = true;
  std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity;

  // ---- Registry integration (SimSpec::multi_client) ---------------------

  // Default predictor for every client. Oracle plans against the chain's
  // ground-truth rows; anything else gives each client its own online
  // predictor over its own history, with an observe-only warmup prefix
  // and a shortlist floor (the netsim_des learned-branch semantics).
  PredictorKind predictor = PredictorKind::Oracle;
  double predictor_min_prob = 0.01;
  std::size_t predictor_warmup = 0;  // observe-only cycles per client

  // Net grounding: when non-empty, replaces every client's chain-drawn
  // retrieval-time catalog (the runtime driver grounds r_i = latency +
  // size_i / bandwidth here so multi_client rows are comparable with
  // netsim_des/scenario rows of the same spec). Scripted clients require
  // it — they have no chain to draw a catalog from.
  std::vector<double> retrieval_times;

  // ---- Hostile worlds (extension) ---------------------------------------

  // Flash crowd / thundering herd: blends every client's per-cycle viewing
  // time toward one shared herd schedule (drawn from the config seed, NOT
  // from any client stream). 0 = independent phases (bit-identical with
  // the field absent); 1 = cycle k takes the same time for everyone, so
  // demand spikes hit the shared link together. Because the blended
  // viewing time varies with the cycle INDEX, the oracle state key no
  // longer determines the planning inputs — plan memoization is disabled
  // whenever phase_align > 0 (on/off is then trivially bit-identical).
  double phase_align = 0.0;  // in [0, 1]

  // Client churn: a client with churn_period > 0 departs at the first
  // cycle boundary past each churn boundary, flushes its cache and
  // frequency book (in-flight transfers complete regardless — the
  // no-abort rule), cold-restarts its predictor, invalidates its plan
  // memo, and rejoins churn_downtime later with its chain state and
  // private streams intact — so churning one client never shifts a
  // sibling's request trajectory. The cycle quota is unaffected: a
  // churning client still serves every one of its requests.
  double churn_period = 0.0;    // simulated time between departures; 0 = off
  double churn_downtime = 0.0;  // offline span per departure

  // Shared-link quality schedule (sim/link_schedule.hpp): the phase in
  // force at a transfer's start re-prices the base cost r as
  // phase.latency + r / phase.bandwidth (then link_speedup divides as
  // usual). Empty = static link. Planning and the network_time metrics
  // keep the base r — the clients plan against stale link estimates.
  std::vector<LinkPhase> link_schedule;

  // ---- Robustness layer (extension) -------------------------------------

  // Prefetch-transfer fault injection (sim/fault.hpp). Draws come from
  // one shared link-level stream — Rng(seed).split(kFaultStreamSalt) —
  // consumed in link-commit order, so enabling faults never perturbs a
  // client's workload or decision streams. Demand fetches stay reliable
  // (they are the fallback); an abandoned prefetch releases its cache
  // slot and the item is demand-fetched when actually requested.
  FaultSpec fault;

  // Adaptive overload controller (core/overload.hpp): one fleet-wide
  // controller observes every realized access time and degrades planning
  // effort for ALL clients together — the link is shared, so pressure is
  // a system property, not a client one. Every rung transition bumps
  // each client's plan-memo generations and canonical-order tables (the
  // degraded row breaks the state-key promise across rungs).
  OverloadConfig overload;

  // Deadline accounting: a request served with T <= deadline counts
  // toward MultiClientResult::deadline_hits. 0 = no deadline tracked.
  double deadline = 0.0;

  // Per-client drive overrides; empty = homogeneous clients from the
  // fields above (the legacy shared sequential stream scheme), otherwise
  // exactly one entry per client. With a non-empty vector EVERY client
  // gets private build/walk streams — from its `seed` when given
  // (position-independent: the same seeded client reproduces its
  // trajectory solo or in any fleet), else derived from (config seed,
  // client index) — so reseeding or reshaping one client can never
  // shift another's trajectory.
  struct ClientOverride {
    std::optional<MarkovSourceConfig> source;  // chain shape
    std::optional<std::uint64_t> seed;         // private stream root
    std::optional<PredictorKind> predictor;
    // Scripted drive (learned clients only): replay exactly this (item,
    // viewing time) sequence instead of walking a chain — how the
    // runtime drives iid / trace workloads that are not chains. Must
    // cover the client's cycle quota.
    std::vector<TraceRecord> cycles;
    // Per-client cycle quota; overrides requests_per_client so a total
    // request budget can be split across clients without dropping the
    // remainder (sum of quotas = budget).
    std::optional<std::size_t> requests;
    // Per-client churn schedule, overriding the config-wide fields (a 0
    // period disables churn for just this client).
    std::optional<double> churn_period;
    std::optional<double> churn_downtime;
  };
  std::vector<ClientOverride> overrides;
};

struct MultiClientResult {
  SimMetrics aggregate;                  // across all clients
  std::vector<SimMetrics> per_client;
  PlanMemoStats plan_cache;              // counters summed across clients
  std::uint64_t plans = 0;               // planning rounds that fetched
  std::uint64_t churn_events = 0;        // departures across all clients
  FaultStats fault;                      // link-level fault counters
  OverloadStats overload;                // controller rungs/transitions
  std::uint64_t deadline_hits = 0;       // requests with T <= deadline
  double makespan = 0.0;                 // time when the last client ended
  double link_busy_time = 0.0;
  double link_utilization() const {
    return makespan > 0.0 ? link_busy_time / makespan : 0.0;
  }
};

MultiClientResult run_multi_client(const MultiClientConfig& config);

}  // namespace skp
