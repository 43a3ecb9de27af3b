#include "sim/netsim_stepper.hpp"

#include <utility>

#include "sim/fault.hpp"
#include "sim/grounded.hpp"
#include "util/require.hpp"

namespace skp {

NetsimStepper::NetsimStepper(const SimSpec& spec)
    : NetsimStepper(spec, nullptr) {}

NetsimStepper::NetsimStepper(const SimSpec& spec,
                             std::shared_ptr<const SharedCatalog> catalog)
    : spec_(spec), walk_(0), drift_rng_(0) {
  const SimWorkload& w = spec_.workload;
  SKP_REQUIRE(w.n_items >= 2, "n_items must be >= 2");
  SKP_REQUIRE(spec_.requests >= 1, "requests must be >= 1");
  // The session arbitrates its own victims (Figure-6 Pr-arbitration), so
  // it reads no scenario section.
  require_read_sections(spec_, SimDriverKind::NetsimDes);
  const std::size_t n = w.n_items;

  // The read-mostly group state (sizes, r, master chain, cycle script)
  // comes from the shared catalog; this session holds only its own
  // trajectory. Grounding streams are consumed inside build() exactly
  // as this constructor used to consume them inline.
  catalog_ = catalog ? std::move(catalog) : SharedCatalog::acquire(spec_);
  SKP_REQUIRE(catalog_->key() == SharedCatalog::key_of(spec_),
              "shared catalog does not belong to this spec's group");

  // Time-varying link: realized transfer pricing follows the schedule
  // while the catalog's r_i (and so planning) stays the base estimate.
  NetConfig net;
  net.bandwidth = spec_.bandwidth;
  net.latency = spec_.latency;
  net.schedule = spec_.link_schedule;

  session_.emplace(catalog_->client(), std::move(net),
                   engine_config(spec_), spec_.cache_size);
  // Memo tiers in oracle mode only: a learned row changes with every
  // observation, so no context key holds and no tier could hit.
  if (spec_.use_plan_cache && spec_.predictor == PredictorKind::Oracle) {
    session_->enable_plan_cache(spec_.plan_cache_capacity);
  }

  // Robustness layer: faults draw from their dedicated stream (never
  // perturbing build/walk), the controller watches every realized T.
  validate_fault_spec(spec_.fault);
  SKP_REQUIRE(spec_.deadline >= 0.0, "deadline must be >= 0");
  if (spec_.fault.enabled()) {
    session_->set_fault_injection(spec_.fault,
                                  Rng(spec_.seed).split(kFaultStreamSalt));
  }
  overload_ = OverloadController(spec_.overload);

  P_.assign(n, 0.0);
  walk_ = catalog_->walk();
  if (spec_.predictor == PredictorKind::Oracle) {
    // Oracle mode: the DES rendition of the Fig.-7 protocol — ground-
    // truth transition rows, context keys enabling plan memoization.
    // The chain itself is the catalog's; this session owns only its
    // state cursor (from state 0), walk stream and planning row.
    mcfg_ = catalog_->markov_config();
    chain_ = &catalog_->chain();
    drift_rng_ = catalog_->drift_rng();
    drift_period_ = catalog_->drift_period();
  } else {
    // Learned mode: the shared materialized cycles drive a private
    // predictor; an observe-only warmup plans against a zero row (the
    // planner then fetches nothing). No context key — the predictor's
    // state is outside the session's invalidation scope.
    mat_ = &catalog_->materialized();
    predictor_ = make_runtime_predictor(spec_.predictor, n);
  }
}

void NetsimStepper::count_plan() {
  const std::uint64_t now = session_->metrics().prefetch_fetches;
  if (now > prev_prefetches_) ++plans_;
  prev_prefetches_ = now;
}

void NetsimStepper::on_rung_change() {
  // Memoized plans were computed against the previous rung's degraded
  // rows, so the context-key promise just broke.
  session_->invalidate_plan_cache();
  session_->set_plan_admission_frozen(
      overload_.rung() >= DegradationRung::kStrictAdmission);
}

void NetsimStepper::settle_request(double T) {
  if (spec_.deadline > 0.0 && T <= spec_.deadline) ++deadline_hits_;
  if (overload_.observe(T)) on_rung_change();
}

bool NetsimStepper::force_degrade() {
  if (!overload_.force_step_down()) return false;
  on_rung_change();
  return true;
}

void NetsimStepper::step_oracle() {
  const std::size_t req = executed_;
  if (drift_period_ != 0 && req != 0 && req % drift_period_ == 0) {
    if (!owned_chain_) {
      // First changepoint: this session's chain diverges from the
      // shared master, so it takes a private copy to mutate
      // (copy-on-write — sessions that never drift never copy).
      owned_chain_ = std::make_unique<MarkovChain>(*chain_);
      chain_ = owned_chain_.get();
    }
    owned_chain_->redraw_transitions(mcfg_, drift_rng_);
    // The context keys' promise (state -> row) just broke.
    session_->invalidate_plan_cache();
  }
  const double v = chain_->viewing_time(state_);
  // An observe-only warmup prefix plans against the zero row with no
  // support (fetches nothing), mirroring the learned branch's semantics.
  const bool planning = req >= spec_.predictor_warmup;
  std::span<const ItemId> support;
  if (planning) {
    chain_->scatter_row(state_, P_);
    support = chain_->successors(state_);
    // Degrading only zeroes entries, so the successor list still covers
    // the row (and clears it below).
    overload_.degrade_row(P_);
  }
  const auto next = static_cast<ItemId>(chain_->sample_from(state_, walk_));
  std::optional<ItemId> oracle_next;
  if (planning && spec_.policy == PrefetchPolicy::Perfect) {
    oracle_next = next;
  }
  const double T =
      session_->request(next, v, P_, oracle_next,
                        planning && spec_.use_plan_cache
                            ? std::optional<std::uint64_t>(state_)
                            : std::nullopt,
                        support);
  if (planning) chain_->clear_row(state_, P_);
  count_plan();
  settle_request(T);
  state_ = static_cast<std::size_t>(next);
  last_T_ = T;
}

void NetsimStepper::step_learned() {
  const std::size_t i = executed_;
  const TraceRecord& rec = mat_->cycles[i];
  if (i >= spec_.predictor_warmup) {
    predictor_->predict_filtered_into(spec_.predictor_min_prob, P_,
                                      support_);
    // Degrading only zeroes entries, so support_ still covers the row.
    overload_.degrade_row(P_);
  }
  std::optional<ItemId> oracle_next;
  if (spec_.policy == PrefetchPolicy::Perfect) oracle_next = rec.item;
  const double T = session_->request(rec.item, rec.viewing_time, P_,
                                     oracle_next, std::nullopt, support_);
  count_plan();
  settle_request(T);
  predictor_->observe(rec.item);
  last_T_ = T;
}

NetsimStepSnapshot NetsimStepper::step() {
  SKP_REQUIRE(!done(), "netsim stepper already ran all "
                           << spec_.requests << " cycles");
  if (spec_.predictor == PredictorKind::Oracle) {
    step_oracle();
  } else {
    step_learned();
  }
  ++executed_;
  return snapshot();
}

NetsimStepSnapshot NetsimStepper::snapshot() const {
  const SimMetrics& m = session_->metrics();
  NetsimStepSnapshot s;
  s.seq = executed_;
  s.T = last_T_;
  s.requests = m.requests;
  s.hits = m.hits;
  s.demand_fetches = m.demand_fetches;
  s.prefetch_fetches = m.prefetch_fetches;
  s.solver_nodes = m.solver_nodes;
  s.plans = plans_;
  s.deadline_hits = deadline_hits_;
  return s;
}

SimResult NetsimStepper::result() const {
  SimResult out;
  out.metrics = session_->metrics();
  out.plan_cache = session_->plan_cache_stats();
  out.plans = plans_;
  out.link_utilization = session_->link_utilization();
  out.fault = session_->fault_stats();
  out.overload = overload_.stats();
  out.deadline_hits = deadline_hits_;
  return out;
}

}  // namespace skp
