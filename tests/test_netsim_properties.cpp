// Randomized multi-cycle properties of the DES network substrate.
#include <gtest/gtest.h>

#include "sim/netsim.hpp"
#include "test_util.hpp"
#include "workload/prob_gen.hpp"
#include "workload/request_stream.hpp"

namespace skp {
namespace {

struct SessionParam {
  PrefetchPolicy policy;
  double latency;
};

// Prints a row by its fields, so test ids never show padding bytes.
void PrintTo(const SessionParam& p, std::ostream* os) {
  *os << to_string(p.policy) << " latency " << p.latency;
}

std::string session_param_name(
    const ::testing::TestParamInfo<SessionParam>& info) {
  const auto& p = info.param;
  return to_string(p.policy) + (p.latency > 0 ? "_lat" : "_nolat");
}

class SessionGridTest : public ::testing::TestWithParam<SessionParam> {
 protected:
  // Drives `cycles` random request cycles and returns the session.
  std::unique_ptr<ClientSession> drive(Rng& rng, int cycles) const {
    const std::size_t n = 12;
    std::vector<double> sizes(n);
    for (auto& s : sizes) s = rng.uniform(1.0, 20.0);
    NetConfig net;
    net.latency = GetParam().latency;
    EngineConfig ecfg;
    ecfg.policy = GetParam().policy;
    ecfg.arbitration.sub = SubArbitration::DS;
    auto session = std::make_unique<ClientSession>(
        ServerCatalog{sizes}, net, ecfg, /*cache=*/5);
    for (int i = 0; i < cycles; ++i) {
      const auto P = flat_probabilities(n, rng);
      const auto item = sample_categorical(P, rng);
      const double v = rng.uniform(0.0, 30.0);
      const double T = session->request(
          item, v, P,
          GetParam().policy == PrefetchPolicy::Perfect
              ? std::optional<ItemId>(item)
              : std::nullopt);
      EXPECT_GE(T, 0.0);
    }
    return session;
  }
};

TEST_P(SessionGridTest, MetricsAndClockConsistent) {
  Rng rng(8000);
  const auto session = drive(rng, 60);
  const auto& m = session->metrics();
  EXPECT_EQ(m.requests, 60u);
  EXPECT_EQ(m.access_time.count(), 60u);
  EXPECT_LE(m.hits, m.requests);
  EXPECT_GE(session->now(), 0.0);
  EXPECT_GE(session->link_utilization(), 0.0);
  EXPECT_LE(session->link_utilization(), 1.0 + 1e-9);
  EXPECT_LE(session->cache().size(), session->cache().capacity());
}

TEST_P(SessionGridTest, DeterministicAcrossRuns) {
  Rng rng1(8001), rng2(8001);
  const auto a = drive(rng1, 40);
  const auto b = drive(rng2, 40);
  EXPECT_DOUBLE_EQ(a->metrics().mean_access_time(),
                   b->metrics().mean_access_time());
  EXPECT_EQ(a->metrics().hits, b->metrics().hits);
  EXPECT_DOUBLE_EQ(a->now(), b->now());
}

TEST_P(SessionGridTest, NetworkTimeAccountsAllTransfers) {
  Rng rng(8002);
  const auto session = drive(rng, 60);
  const auto& m = session->metrics();
  // Every fetch (prefetch or demand) contributes at least the latency and
  // at most the largest retrieval time.
  if (m.prefetch_fetches + m.demand_fetches > 0) {
    EXPECT_GT(m.network_time, 0.0);
  }
  if (GetParam().policy == PrefetchPolicy::None) {
    EXPECT_EQ(m.prefetch_fetches, 0u);
  }
}

TEST_P(SessionGridTest, PerfectNeverSlowerThanDemandOnAverage) {
  if (GetParam().policy != PrefetchPolicy::Perfect) GTEST_SKIP();
  // Run a paired demand-only session on the same request stream.
  Rng rng_a(8003), rng_b(8003);
  const auto perfect = drive(rng_a, 80);
  // Drive an equivalent demand-only session on the same request stream.
  const std::size_t n = 12;
  std::vector<double> sizes(n);
  for (auto& s : sizes) s = rng_b.uniform(1.0, 20.0);
  NetConfig net;
  net.latency = GetParam().latency;
  EngineConfig ecfg;
  ecfg.policy = PrefetchPolicy::None;
  ecfg.arbitration.sub = SubArbitration::DS;
  ClientSession demand(ServerCatalog{sizes}, net, ecfg, 5);
  for (int i = 0; i < 80; ++i) {
    const auto P = flat_probabilities(n, rng_b);
    const auto item = sample_categorical(P, rng_b);
    const double v = rng_b.uniform(0.0, 30.0);
    demand.request(item, v, P);
  }
  EXPECT_LE(perfect->metrics().mean_access_time(),
            demand.metrics().mean_access_time() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SessionGridTest,
    ::testing::Values(
        SessionParam{PrefetchPolicy::None, 0.0},
        SessionParam{PrefetchPolicy::KP, 0.0},
        SessionParam{PrefetchPolicy::KP, 0.5},
        SessionParam{PrefetchPolicy::SKP, 0.0},
        SessionParam{PrefetchPolicy::SKP, 1.0},
        SessionParam{PrefetchPolicy::Perfect, 0.0},
        SessionParam{PrefetchPolicy::Perfect, 0.5}),
    session_param_name);

}  // namespace
}  // namespace skp
