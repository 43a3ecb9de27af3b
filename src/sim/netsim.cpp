#include "sim/netsim.hpp"

#include <algorithm>
#include <cmath>

#include "core/access_model.hpp"

namespace skp {

std::vector<double> ServerCatalog::retrieval_times(
    const NetConfig& net) const {
  std::vector<double> r(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    r[i] = retrieval_time(static_cast<ItemId>(i), net);
  }
  return r;
}

namespace {

// Wraps a privately owned catalog for the legacy constructor. Validation
// runs here (once per catalog) so the shared path can skip the O(n) size
// scan for every session referencing an already-validated catalog.
std::shared_ptr<const SharedClientCatalog> wrap_catalog(
    ServerCatalog catalog, const NetConfig& net) {
  SKP_REQUIRE(net.bandwidth > 0.0, "bandwidth must be positive");
  SKP_REQUIRE(net.latency >= 0.0, "latency must be >= 0");
  validate_link_schedule(net.schedule);
  for (std::size_t i = 0; i < catalog.n(); ++i) {
    SKP_REQUIRE(catalog.sizes[i] > 0.0, "size[" << i << "] must be > 0");
  }
  auto cat = std::make_shared<SharedClientCatalog>();
  cat->server = std::move(catalog);
  cat->r = cat->server.retrieval_times(net);
  return cat;
}

const SharedClientCatalog& deref_catalog(
    const std::shared_ptr<const SharedClientCatalog>& cat) {
  SKP_REQUIRE(cat != nullptr, "ClientSession needs a catalog");
  return *cat;
}

// r's half of InstanceView::validate(), run once per session: the
// catalog is immutable, so requests never re-check it.
void validate_retrieval_times(std::span<const double> r) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    SKP_REQUIRE(r[i] > 0.0 && std::isfinite(r[i]),
                "r[" << i << "] = " << r[i] << " must be > 0");
  }
}

// P's half of InstanceView::validate(), on the support only (see
// ClientSession::request): the skipped entries are +0.0, so the
// ascending sum is the dense sum bit for bit.
void validate_supported_row(std::span<const double> P,
                            std::span<const ItemId> support) {
  constexpr double kProbEps = 1e-9;  // InstanceView::validate's tolerance
  ItemId prev = kNoItem;
  double sum = 0.0;
  for (const ItemId id : support) {
    SKP_REQUIRE(id > prev && static_cast<std::size_t>(id) < P.size(),
                "support id " << id << " after " << prev
                              << " is not ascending within the catalog");
    prev = id;
    const double p = P[static_cast<std::size_t>(id)];
    SKP_REQUIRE(p >= 0.0 && std::isfinite(p), "P[" << id << "] = " << p);
    sum += p;
  }
  SKP_REQUIRE(sum <= 1.0 + kProbEps,
              "probabilities sum to " << sum << " > 1");
}

}  // namespace

ClientSession::ClientSession(ServerCatalog catalog, NetConfig net,
                             EngineConfig engine,
                             std::size_t cache_capacity)
    : ClientSession(wrap_catalog(std::move(catalog), net), std::move(net),
                    engine, cache_capacity) {}

ClientSession::ClientSession(
    std::shared_ptr<const SharedClientCatalog> catalog, NetConfig net,
    EngineConfig engine, std::size_t cache_capacity)
    : cat_(std::move(catalog)),
      net_(std::move(net)),
      engine_(engine),
      book_(SlotCache(deref_catalog(cat_).n(), cache_capacity), cat_->r,
            engine.arbitration) {
  SKP_REQUIRE(net_.bandwidth > 0.0, "bandwidth must be positive");
  SKP_REQUIRE(net_.latency >= 0.0, "latency must be >= 0");
  validate_link_schedule(net_.schedule);
  SKP_REQUIRE(cat_->r.size() == cat_->n(),
              "catalog retrieval-time vector size mismatch");
  validate_retrieval_times(cat_->r);
  completion_.assign(cat_->n(), 0.0);
}

void ClientSession::enable_plan_cache(std::size_t capacity) {
  memo_ = make_memo_tiers(/*use_plan_cache=*/true, capacity,
                          engine_.config_digest(), /*learned_rows=*/false,
                          engine_.config().arbitration.sub,
                          /*canonical_states=*/0);
}

double ClientSession::link_utilization() const {
  return now_ > 0.0 ? link_busy_total_ / now_ : 0.0;
}

void ClientSession::book_link_busy(double finish, double busy) {
  SKP_REQUIRE(finish >= now_,
              "transfer finishing at " << finish << " before now=" << now_);
  SKP_ASSERT(link_pending_.empty() || link_pending_.back().finish <= finish);
  link_pending_.push_back({finish, busy});
}

void ClientSession::run_until(double horizon) {
  std::size_t head = link_head_;
  while (head < link_pending_.size() &&
         link_pending_[head].finish <= horizon) {
    link_busy_total_ += link_pending_[head].busy;
    ++head;
  }
  if (head == link_pending_.size()) {
    link_pending_.clear();
    head = 0;
  } else if (2 * head >= link_pending_.size()) {
    link_pending_.erase(link_pending_.begin(),
                        link_pending_.begin() +
                            static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  link_head_ = head;
  now_ = std::max(now_, horizon);
}

void ClientSession::set_fault_injection(const FaultSpec& spec, Rng stream) {
  validate_fault_spec(spec);
  fault_ = spec;
  fault_rng_ = stream;
}

std::optional<double> ClientSession::enqueue_prefetch(ItemId item) {
  if (!fault_.enabled()) return enqueue_transfer(item);
  const double start = std::max(now_, link_free_at_);
  const FaultTransfer ft = run_faulty_transfer(
      fault_, fault_rng_, fault_stats_, start, [&](double attempt_start) {
        return net_.transfer_time(cat_->server.sizes[Instance::idx(item)],
                                  attempt_start);
      });
  // The link is held through every attempt; backoff gaps idle it, so
  // occupancy (ft.busy) is what counts toward utilization.
  link_free_at_ = ft.finish;
  book_link_busy(ft.finish, ft.busy);
  if (!ft.delivered) return std::nullopt;
  return ft.finish;
}

double ClientSession::enqueue_transfer(ItemId item) {
  const double start = std::max(now_, link_free_at_);
  // Priced by the link phase in force at transfer START (the base static
  // r_i when no schedule is set); metrics keep charging the base r_i so
  // network_time stays comparable across schedules.
  const double duration =
      net_.transfer_time(cat_->server.sizes[Instance::idx(item)], start);
  const double finish = start + duration;
  link_free_at_ = finish;
  book_link_busy(finish, finish - start);
  return finish;
}

double ClientSession::request(ItemId item, double viewing_time,
                              std::span<const double> next_probs,
                              std::optional<ItemId> oracle_next,
                              std::optional<std::uint64_t> context_key,
                              std::optional<std::span<const ItemId>> support) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < cat_->n(),
              "item out of range");
  SKP_REQUIRE(viewing_time >= 0.0, "negative viewing time");
  SKP_REQUIRE(next_probs.size() == cat_->n(),
              "probability vector size mismatch");

  const double t0 = now_;
  if (support) {
    validate_supported_row(next_probs, *support);
  } else {
    P_.assign(next_probs.begin(), next_probs.end());
    next_probs = P_;
  }
  const InstanceView inst(next_probs, cat_->r, viewing_time);
  if (!support) inst.validate();

  // Plan and commit prefetches (slots are reserved at enqueue time so the
  // planner never double-fetches an in-flight item; a request for such an
  // item waits for its completion).
  const PlanMemo memo = context_key ? memo_.memo(*context_key) : PlanMemo{};
  engine_.plan_with_cache_cached(inst, book_.cache(), &book_.freq(), memo,
                                 scratch_, plan_, oracle_next, support,
                                 book_.eviction_order());
  metrics_.solver_nodes += plan_.solver_nodes;
  book_.execute(plan_, &metrics_, [this](ItemId f) {
    const std::optional<double> done = enqueue_prefetch(f);
    if (done) completion_[Instance::idx(f)] = *done;
    return done.has_value();
  });

  // The user views for `viewing_time`, then requests `item`.
  const double t_req = t0 + viewing_time;
  run_until(t_req);

  double T = 0.0;
  if (book_.cache().contains(item)) {
    T = std::max(0.0, completion_[Instance::idx(item)] - t_req);
  } else {
    // Demand fetch: waits behind every committed prefetch (the paper's
    // no-abort assumption) and must claim a victim when the cache is
    // full, chosen under the row in force this cycle.
    book_.admit_demand(item, &metrics_, [&] { return inst; });
    const double finish = enqueue_transfer(item);
    completion_[Instance::idx(item)] = finish;
    T = finish - t_req;
  }
  run_until(t_req + T);

  book_.view(item);
  metrics_.access_time.add(T);
  ++metrics_.requests;
  if (T == 0.0) ++metrics_.hits;
  return T;
}

}  // namespace skp
