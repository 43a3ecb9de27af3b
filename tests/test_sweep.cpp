#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/prefetch_cache.hpp"

namespace skp {
namespace {

TEST(Sweep, ResultsComeBackInInputOrder) {
  ThreadPool pool(4);
  const auto results = sweep_points(
      pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(Sweep, EmptySweepIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  const auto results = sweep_points(pool, 0, [&](std::size_t) {
    called = true;
    return 0;
  });
  EXPECT_TRUE(results.empty());
  EXPECT_FALSE(called);
}

TEST(Sweep, MoveOnlyResultsSupported) {
  ThreadPool pool(2);
  const auto results = sweep_points(pool, 5, [](std::size_t i) {
    return std::make_unique<std::size_t>(i);
  });
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(*results[i], i);
}

TEST(Sweep, FirstFailureByInputIndexPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      {
        try {
          sweep_points(pool, 10, [](std::size_t i) {
            if (i == 3 || i == 7) {
              throw std::runtime_error("job " + std::to_string(i));
            }
            return i;
          });
        } catch (const std::runtime_error& e) {
          // Futures are joined in index order, so the lowest failing
          // index wins deterministically even when several jobs throw.
          EXPECT_STREQ(e.what(), "job 3");
          throw;
        }
      },
      std::runtime_error);
}

TEST(Sweep, AllJobsJoinedEvenWhenOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(sweep_points(pool, 20,
                            [&](std::size_t i) -> int {
                              if (i == 0) throw std::runtime_error("boom");
                              ++completed;
                              return 0;
                            }),
               std::runtime_error);
  // sweep_points returns only after every job has run to completion, so
  // no sibling can be left touching the (destroyed) result slots.
  EXPECT_EQ(completed.load(), 19);
}

TEST(Sweep, SweepConfigsForwardsEachConfig) {
  ThreadPool pool(2);
  const std::vector<int> configs = {3, 1, 4, 1, 5};
  const auto results =
      sweep_configs(pool, configs, [](int c) { return c * 10; });
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i], configs[i] * 10);
  }
}

// The property the bench drivers rely on: a sweep of independently seeded
// sims is bit-identical for 1 thread, N threads, and a plain serial loop.
TEST(Sweep, SimPointsBitIdenticalAcrossThreadCounts) {
  const auto point_config = [](std::size_t i) {
    SimSpec cfg;  // prefetch_cache driver, markov workload
    cfg.workload.n_items = 30;
    cfg.workload.out_degree_lo = 4;
    cfg.workload.out_degree_hi = 8;
    cfg.cache_size = 2 + 4 * i;
    cfg.policy = i % 2 == 0 ? PrefetchPolicy::SKP : PrefetchPolicy::KP;
    cfg.requests = 800;
    cfg.seed = 11;
    return cfg;
  };
  constexpr std::size_t kPoints = 6;

  std::vector<SimResult> serial;
  for (std::size_t i = 0; i < kPoints; ++i) {
    serial.push_back(run_prefetch_cache(point_config(i)));
  }

  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto swept = sweep_points(pool, kPoints, [&](std::size_t i) {
      return run_prefetch_cache(point_config(i));
    });
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < kPoints; ++i) {
      EXPECT_EQ(swept[i].metrics.hits, serial[i].metrics.hits)
          << "threads=" << threads << " point=" << i;
      EXPECT_EQ(swept[i].metrics.demand_fetches,
                serial[i].metrics.demand_fetches);
      EXPECT_EQ(swept[i].metrics.prefetch_fetches,
                serial[i].metrics.prefetch_fetches);
      EXPECT_EQ(swept[i].metrics.solver_nodes,
                serial[i].metrics.solver_nodes);
      EXPECT_EQ(swept[i].metrics.mean_access_time(),
                serial[i].metrics.mean_access_time())
          << "threads=" << threads << " point=" << i;
    }
  }
}

}  // namespace
}  // namespace skp
