// Multi-client distributed information system (extension): the
// registry's `multi_client` driver.
//
// The paper analyses a single client; its title domain — distributed
// information systems — raises the obvious system-level question:
// speculative traffic from one client occupies the shared server link and
// delays everyone else's demand fetches. This simulator runs
// spec.multi_client.clients clients, each with its own cache, prefetch
// engine and request stream, over ONE shared FIFO link (the server
// bottleneck), using the event queue substrate. A transfer of base cost r
// occupies the link for r / link_speedup. Per the paper's Section-2
// assumption, committed transfers are never aborted or preempted — a
// demand fetch queues behind everything already on the wire, including
// other clients' speculation.
//
// Every client reads the grounded retrieval catalog of netsim_des and
// scenario (ground_streams), so multi_client rows are comparable with
// theirs. A per-client override may replace a client's workload (same
// n_items), predictor, seed, quota and churn schedule. Client c draws
// from its own root stream Rng(Rng(seed_c).split(1000 + c).next_u64()),
// where seed_c is its override seed or else spec.seed, with build
// split(1) and walk split(2); so reseeding or reshaping one client never
// shifts another's trajectory. Clients come in two drive modes:
//  * oracle  — walks its own Markov chain and plans against the chain's
//    ground-truth rows, with per-client plan memoization
//    (core/plan_cache.hpp), after a predictor_warmup prefix that plans
//    against no row: no scatter, an empty support, no memo key (the
//    netsim_des oracle semantics). Its demand victims are chosen under
//    the next state's row, in the prefix too;
//  * learned — replays its materialized workload and plans against its
//    own online predictor's rows, after an observe-only
//    predictor_warmup prefix (the netsim_des learned semantics). Its
//    demand victims are chosen under the row in force that cycle. It
//    builds no memo tier: the predictor's state changes on every
//    observation, so no context key holds.
//
// Hostile worlds and the robustness layer:
//  * phase_align in [0, 1] blends cycle k's viewing time toward one
//    shared herd schedule drawn from Rng(spec.seed).split(999). At 1,
//    cycle k takes the same time for everyone, so demand spikes hit the
//    link together. The blend varies with the cycle INDEX, which breaks
//    the memo's state-key promise, so memoization is off whenever
//    phase_align > 0.
//  * churn: a client with churn_period > 0 departs at the first cycle
//    boundary past each churn boundary, flushes its cache and frequency
//    book (in-flight transfers still complete), cold-restarts its
//    predictor, retires its plan memo, and rejoins churn_downtime later
//    with its chain state and streams intact. It still serves its quota.
//  * link_schedule: the phase in force at a transfer's start re-prices
//    the base cost r as latency + r / bandwidth (then link_speedup
//    divides). Planning and the network_time metrics keep the base r —
//    the clients plan against stale link estimates.
//  * fault: prefetch attempts draw from one link-level stream,
//    Rng(spec.seed).split(kFaultStreamSalt), in link-commit order, so
//    arming faults never perturbs a client's streams. Demand fetches
//    stay reliable; an abandoned prefetch releases its slot.
//  * overload: one fleet-wide controller watches every realized access
//    time and degrades planning for ALL clients — the link is shared, so
//    pressure is a system property. Each rung change retires every
//    client's memo.
//  * deadline > 0 counts requests served with T <= deadline.
//
// bench/contention sweeps client count x prefetch threshold and shows the
// congestion cost of unthrottled speculation — the system-level version
// of the Section-6 network-usage concern.
#pragma once

#include "sim/runtime.hpp"

namespace skp {

SimResult run_multi_client(const SimSpec& spec);

}  // namespace skp
