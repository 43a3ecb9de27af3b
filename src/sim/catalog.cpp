#include "sim/catalog.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "sim/grounded.hpp"
#include "util/require.hpp"

namespace skp {

namespace {

std::mutex g_registry_mu;

using RegistryEntry =
    std::pair<SharedCatalog::Key, std::weak_ptr<const SharedCatalog>>;

std::vector<RegistryEntry>& registry() {
  // Leaked singleton: catalogs may outlive static destruction order
  // (daemon sessions held in other translation units' statics).
  static auto* reg = new std::vector<RegistryEntry>();
  return *reg;
}

}  // namespace

SharedCatalog::Key SharedCatalog::key_of(const SimSpec& spec) {
  Key key;
  key.workload = spec.workload;
  key.seed = spec.seed;
  key.bandwidth = spec.bandwidth;
  key.latency = spec.latency;
  key.oracle = spec.predictor == PredictorKind::Oracle;
  key.requests = key.oracle ? 0 : spec.requests;
  return key;
}

std::shared_ptr<const SharedCatalog> SharedCatalog::build(
    const SimSpec& spec) {
  // Same messages as the per-session validation this replaces, thrown
  // before anything is grounded so a rejected spec never interns state.
  SKP_REQUIRE(spec.bandwidth > 0.0, "bandwidth must be positive");
  SKP_REQUIRE(spec.latency >= 0.0, "latency must be >= 0");

  std::shared_ptr<SharedCatalog> cat(new SharedCatalog());
  cat->key_ = key_of(spec);

  // Stream-for-stream the grounding the per-session constructors
  // performed: sizes from root.split(3), chain structure from build,
  // drift stream split off build AFTER the chain consumed it.
  GroundedStreams g = ground_streams(spec);
  Rng& build = g.build;

  auto client = std::make_shared<SharedClientCatalog>();
  client->server = std::move(g.catalog);
  client->r = client->server.retrieval_times(g.net);
  cat->client_ = std::move(client);
  cat->walk_ = g.walk;

  const SimWorkload& w = spec.workload;
  if (cat->key_.oracle) {
    SKP_REQUIRE(w.kind == SimWorkloadKind::Markov ||
                    w.kind == SimWorkloadKind::MarkovDrift ||
                    w.kind == SimWorkloadKind::Zipf ||
                    w.kind == SimWorkloadKind::Adversarial,
                "oracle netsim_des needs a generative workload "
                "(markov | markov_drift | zipf | adversarial)");
    cat->mcfg_ = to_markov_config(w);
    cat->chain_.emplace(make_workload_chain(w, build));
    cat->drift_rng_ = build.split(kPrefetchCacheDriftSalt);
    cat->drift_period_ =
        w.kind == SimWorkloadKind::MarkovDrift ? w.drift_period : 0;
  } else {
    // Learned mode consumes walk during materialization; sessions never
    // touch walk afterwards, so the catalog's private copy is enough.
    Rng walk = g.walk;
    cat->mat_.emplace(
        materialize_workload(w, spec.requests, build, walk));
  }
  return cat;
}

std::shared_ptr<const SharedCatalog> SharedCatalog::acquire(
    const SimSpec& spec) {
  const Key key = key_of(spec);
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto& reg = registry();
    for (auto it = reg.begin(); it != reg.end();) {
      if (std::shared_ptr<const SharedCatalog> live = it->second.lock()) {
        if (live->key_ == key) return live;
        ++it;
      } else {
        it = reg.erase(it);  // prune groups whose last session died
      }
    }
  }
  // Build outside the lock — grounding a learned workload is
  // O(requests) and parallel sweep setup must not serialize on it.
  std::shared_ptr<const SharedCatalog> built = build(spec);
  std::lock_guard<std::mutex> lock(g_registry_mu);
  auto& reg = registry();
  for (const auto& [k, weak] : reg) {
    if (k == key) {
      if (std::shared_ptr<const SharedCatalog> live = weak.lock()) {
        return live;  // lost the build race; share the winner
      }
    }
  }
  reg.emplace_back(key, built);
  return built;
}

std::size_t SharedCatalog::interned_groups() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::size_t live = 0;
  for (const auto& [k, weak] : registry()) {
    if (!weak.expired()) ++live;
  }
  return live;
}

std::size_t SharedCatalog::footprint_bytes() const noexcept {
  std::size_t total = sizeof(SharedCatalog);
  total += client_->footprint_bytes();
  if (chain_) total += chain_->footprint_bytes();
  if (mat_) {
    total += mat_->cycles.capacity() * sizeof(TraceRecord) +
             mat_->retrieval_times.capacity() * sizeof(double);
  }
  return total;
}

}  // namespace skp
