// SharedCatalog interning, and its concurrency property: stepping N
// sessions from a thread pool — each session touched only by the worker
// that owns it — produces bit-identical snapshot sequences to stepping
// each session alone. Read-mostly shared state (SharedCatalog) is the
// only thing the sessions have in common, so any hidden write through
// it shows up here (and as a data race under the tsan CI job).
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/catalog.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/runtime.hpp"
#include "util/thread_pool.hpp"

namespace skp {
namespace {

SimSpec stepper_spec(std::uint64_t seed, PredictorKind predictor) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.kind = SimWorkloadKind::Markov;
  spec.workload.n_items = 30;
  spec.predictor = predictor;
  spec.cache_size = 6;
  spec.requests = 120;
  spec.seed = seed;
  return spec;
}

struct StepperSession {
  StepperSession(const SimSpec& spec,
                 std::shared_ptr<const SharedCatalog> catalog)
      : stepper(spec, std::move(catalog)) {}
  NetsimStepper stepper;
  std::vector<NetsimStepSnapshot> got;
};

TEST(SharedCatalog, ConcurrentSteppingBitIdenticalToSolo) {
  // Two spec groups (oracle sharing a master chain, learned sharing a
  // materialized script) interleaved over the session indices, stepped
  // to completion by kWorkers workers; worker w owns indices w,
  // w + kWorkers, ... Every session must reproduce its group's solo
  // snapshot sequence exactly.
  const SimSpec spec_a = stepper_spec(11, PredictorKind::Oracle);
  const SimSpec spec_b = stepper_spec(12, PredictorKind::Lz78);

  auto solo_run = [](const SimSpec& spec) {
    NetsimStepper stepper(spec);
    std::vector<NetsimStepSnapshot> snaps;
    while (!stepper.done()) snaps.push_back(stepper.step());
    return snaps;
  };
  const std::vector<NetsimStepSnapshot> want_a = solo_run(spec_a);
  const std::vector<NetsimStepSnapshot> want_b = solo_run(spec_b);

  const std::shared_ptr<const SharedCatalog> cat_a =
      SharedCatalog::acquire(spec_a);
  const std::shared_ptr<const SharedCatalog> cat_b =
      SharedCatalog::acquire(spec_b);

  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kSessions = 32;
  std::vector<std::unique_ptr<StepperSession>> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const bool group_a = i % 2 == 0;
    sessions.push_back(std::make_unique<StepperSession>(
        group_a ? spec_a : spec_b, group_a ? cat_a : cat_b));
  }

  // Each worker round-robins its own sessions one step at a time,
  // maximizing interleaving against the shared catalog.
  ThreadPool pool(kWorkers);
  std::vector<std::future<void>> done;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    done.push_back(pool.submit([&sessions, w] {
      bool any = true;
      while (any) {
        any = false;
        for (std::size_t i = w; i < sessions.size(); i += kWorkers) {
          StepperSession& ss = *sessions[i];
          if (!ss.stepper.done()) {
            ss.got.push_back(ss.stepper.step());
            any = true;
          }
        }
      }
    }));
  }
  join_all(done);  // rethrows worker exceptions

  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& want = i % 2 == 0 ? want_a : want_b;
    const auto& got = sessions[i]->got;
    ASSERT_EQ(got.size(), want.size()) << "session " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << "session " << i << " step " << k;
    }
  }
}

TEST(SharedCatalog, InternsOneGroupPerSpec) {
  const SimSpec spec_a = stepper_spec(21, PredictorKind::Lz78);
  const SimSpec spec_b = stepper_spec(22, PredictorKind::Lz78);
  const std::size_t before = SharedCatalog::interned_groups();

  const auto cat_a1 = SharedCatalog::acquire(spec_a);
  const auto cat_a2 = SharedCatalog::acquire(spec_a);
  const auto cat_b = SharedCatalog::acquire(spec_b);
  EXPECT_EQ(cat_a1.get(), cat_a2.get());  // same group, same object
  EXPECT_NE(cat_a1.get(), cat_b.get());
  EXPECT_EQ(SharedCatalog::interned_groups(), before + 2);

  // A learned-predictor swap does not split a group: the grounding
  // depends on the workload/seed/link, not on who predicts over it.
  // (Oracle mode IS keyed separately — it grounds a master chain
  // instead of a materialized script.)
  const auto cat_a3 =
      SharedCatalog::acquire(stepper_spec(21, PredictorKind::Ppm));
  EXPECT_EQ(cat_a1.get(), cat_a3.get());
}

}  // namespace
}  // namespace skp
