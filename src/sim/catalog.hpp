// Shared read-mostly catalog of a SimSpec group.
//
// Every netsim_des-style session built from the same spec group —
// identical (seed, workload, bandwidth, latency) and, in learned mode,
// request count — derives the exact same immutable grounding state: the
// server size catalog, the canonical retrieval costs r_i, the drift/walk
// stream seeds, and either the oracle master chain (oracle mode: the
// sparse chain, O(n * degree); each session scatters the rows it plans
// on into its own n-length row) or the materialized cycle script
// (learned mode: grounded from the same chain, O(n * degree +
// requests), and only the script is kept).
// Before this layer each session rebuilt and privately owned all of it,
// which is what capped the sessions-per-GB a daemon could hold. A
// SharedCatalog is built ONCE per group and referenced via shared_ptr by
// every session; sessions keep only their mutable trajectory (cache,
// metrics, RNG cursors, predictor state).
//
// Determinism contract: build() consumes ground_streams(spec) stream for
// stream exactly as the per-session constructors used to, so a session
// running off a SharedCatalog is bit-identical to one that grounded
// itself. Sharing is safe because everything here is immutable after
// build — sessions sample trajectories with MarkovChain::sample_from
// (const) and take a private copy-on-write chain only at a drift
// changepoint.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/netsim.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"
#include "workload/markov_chain.hpp"

namespace skp {

class SharedCatalog {
 public:
  // The spec fields a catalog actually consumes: two specs with equal
  // keys share one catalog. `requests` participates only in learned
  // mode (it sizes the materialized cycle script); oracle keys pin it
  // to 0 so sweeps over request counts still share the chain.
  struct Key {
    SimWorkload workload;
    std::uint64_t seed = 0;
    double bandwidth = 1.0;
    double latency = 0.0;
    bool oracle = true;
    std::size_t requests = 0;

    bool operator==(const Key&) const = default;
  };

  static Key key_of(const SimSpec& spec);

  // Grounds a fresh catalog for `spec` (uncached). Throws
  // std::invalid_argument on specs the grounding cannot honor.
  static std::shared_ptr<const SharedCatalog> build(const SimSpec& spec);

  // Interning build: returns the live catalog of spec's group if one
  // exists, else builds and registers one. The registry holds weak
  // references — a group's catalog dies with its last session. Thread-
  // safe; the (potentially expensive) build runs outside the registry
  // lock so parallel sweep setup never serializes on it.
  static std::shared_ptr<const SharedCatalog> acquire(const SimSpec& spec);

  // Live interned groups right now (tests/diagnostics).
  static std::size_t interned_groups();

  const Key& key() const noexcept { return key_; }
  bool oracle() const noexcept { return key_.oracle; }
  std::size_t n_items() const noexcept { return client_->n(); }

  // The per-session read-only slice (sizes + r), shared by reference.
  const std::shared_ptr<const SharedClientCatalog>& client() const noexcept {
    return client_;
  }

  // ---- Oracle mode --------------------------------------------------
  // The master chain. Immutable: sessions walk it from state 0 with
  // sample_from and their own state cursor, scatter the rows they plan
  // on into their own buffer, and copy it before a drift redraw.
  const MarkovChain& chain() const {
    SKP_REQUIRE(chain_.has_value(), "learned-mode catalog has no chain");
    return *chain_;
  }
  const MarkovSourceConfig& markov_config() const noexcept { return mcfg_; }
  std::size_t drift_period() const noexcept { return drift_period_; }
  // Initial stream values (copied per session, then advanced privately).
  Rng walk() const noexcept { return walk_; }
  Rng drift_rng() const noexcept { return drift_rng_; }

  // ---- Learned mode -------------------------------------------------
  const MaterializedWorkload& materialized() const {
    SKP_REQUIRE(mat_.has_value(), "oracle-mode catalog has no cycle script");
    return *mat_;
  }

  // Heap bytes of the shared state — what N sessions now pay for once.
  std::size_t footprint_bytes() const noexcept;

 private:
  SharedCatalog() = default;

  Key key_;
  std::shared_ptr<const SharedClientCatalog> client_;
  std::optional<MarkovChain> chain_;  // oracle master chain
  MarkovSourceConfig mcfg_;
  Rng walk_{0};
  Rng drift_rng_{0};
  std::size_t drift_period_ = 0;
  std::optional<MaterializedWorkload> mat_;  // learned cycle script
};

}  // namespace skp
