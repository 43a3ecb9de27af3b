// Stepwise netsim_des runner: the DES decision path, one cycle at a time.
//
// The netsim_des driver used to be a single closed loop inside
// runtime.cpp. The skpd daemon (tools/skpd.cpp) needs the SAME decision
// path but driven request-by-request over a socket, with the ability to
// pause between cycles indefinitely while a client reconnects. Rather
// than maintain two copies whose bit-identity would be aspirational,
// the loop body lives here: NetsimStepper holds every piece of loop
// state (session, sources, predictor, RNG streams, overload controller)
// as members, and step() executes exactly one user cycle. The driver is
// now `while (!done()) step()` — so "a daemon-served session matches the
// in-process golden" is structural, not a property to re-verify per
// change.
//
// Determinism contract unchanged: the SimSpec fully determines the step
// sequence; step() draws only from streams derived from spec.seed. The
// one sanctioned deviation is force_degrade(), the daemon's backpressure
// hook — an externally-commanded overload rung descent that by design
// makes the run diverge from the unpressured golden (and is therefore
// never invoked by the in-process driver).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/overload.hpp"
#include "predict/predictor.hpp"
#include "sim/catalog.hpp"
#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

// Observables of one executed cycle, as shipped in a STEP_RESULT frame:
// the realized access time of that cycle plus the cumulative decision-
// path counters after it. Two runs agree on a prefix iff their snapshot
// sequences agree — this is the unit the chaos harness diffs.
struct NetsimStepSnapshot {
  std::uint64_t seq = 0;  // 1-based index of the cycle just executed
  double T = 0.0;         // realized access time of that cycle
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t demand_fetches = 0;
  std::uint64_t prefetch_fetches = 0;
  std::uint64_t solver_nodes = 0;
  std::uint64_t plans = 0;
  std::uint64_t deadline_hits = 0;

  bool operator==(const NetsimStepSnapshot&) const = default;
};

class NetsimStepper {
 public:
  // Validates the spec exactly as the netsim_des driver always has
  // (reject-don't-drop) and materializes all run state, acquiring the
  // spec group's shared catalog from the process-wide intern registry.
  // Throws std::invalid_argument on a spec netsim_des cannot honor.
  explicit NetsimStepper(const SimSpec& spec);

  // Same, but runs against an explicitly provided shared catalog — the
  // bulk-session path (skpd preload, capacity bench) where the caller
  // amortizes one acquire over many sessions. `catalog` must belong to
  // spec's group (checked); results are bit-identical to the acquiring
  // constructor.
  NetsimStepper(const SimSpec& spec,
                std::shared_ptr<const SharedCatalog> catalog);

  const SimSpec& spec() const noexcept { return spec_; }
  std::size_t total() const noexcept { return spec_.requests; }
  std::size_t executed() const noexcept { return executed_; }
  bool done() const noexcept { return executed_ >= spec_.requests; }

  // Executes the next cycle; requires !done().
  NetsimStepSnapshot step();
  // Counters as of the last executed cycle (seq == executed()); valid
  // before the first step too (all-zero snapshot).
  NetsimStepSnapshot snapshot() const;
  // The SimResult of the prefix executed so far; after the final step
  // this is byte-for-byte what run_sim(spec) returns for netsim_des.
  SimResult result() const;

  // Backpressure hook (skpd slow-reader ladder): push the overload
  // controller one rung down immediately, with the same plan-memo
  // invalidation a gradient transition performs. Returns true when the
  // rung actually changed (false at the bottom rung). Works with the
  // controller disabled — see OverloadController::force_step_down().
  bool force_degrade();
  DegradationRung rung() const noexcept { return overload_.rung(); }

 private:
  void step_oracle();
  void step_learned();
  void count_plan();
  // Invalidates the session's memo and refreezes its admission at the
  // overload controller's new rung.
  void on_rung_change();
  void settle_request(double T);

  SimSpec spec_;
  // Shared read-mostly group state (sizes, r, master chain, cycle
  // script). Declared before every member that points into it.
  std::shared_ptr<const SharedCatalog> catalog_;
  Rng walk_;
  std::optional<ClientSession> session_;
  OverloadController overload_;
  // Oracle mode: the session walks the shared master chain through its
  // private (state_, walk_) cursor. A drifting session copies the chain
  // into owned_chain_ at its first changepoint (copy-on-write) and
  // mutates only the copy; a session that never drifts pays one pointer.
  const MarkovChain* chain_ = nullptr;
  std::unique_ptr<MarkovChain> owned_chain_;
  MarkovSourceConfig mcfg_;
  Rng drift_rng_;
  std::size_t drift_period_ = 0;
  std::size_t state_ = 0;
  // Learned mode: shared materialized cycle script + private predictor.
  const MaterializedWorkload* mat_ = nullptr;
  std::unique_ptr<Predictor> predictor_;
  // The planning row of both modes: the predictor's filtered row and its
  // support, or the oracle state's scattered row (cleared again after its
  // cycle). All zeros, with an empty support, during a warmup prefix.
  std::vector<double> P_;
  std::vector<ItemId> support_;   // learned row's nonzero entries
  std::size_t executed_ = 0;
  std::uint64_t prev_prefetches_ = 0;
  std::uint64_t plans_ = 0;
  std::uint64_t deadline_hits_ = 0;
  double last_T_ = 0.0;
};

}  // namespace skp
