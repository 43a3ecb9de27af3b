// Parallel sweep driver for independent simulation points.
//
// The paper's figure experiments are embarrassingly parallel across sweep
// points: each (policy, cache size) / (panel, policy) / (threshold) cell is
// a complete, independently seeded simulation (the workload RNG is derived
// from the config seed, never from shared state). sweep_points fans those
// cells onto the shared util/thread_pool and returns the results in input
// order, so a parallel sweep is *bit-identical* to running the same cells
// in a serial loop — thread count and scheduling only change wall-clock
// (tests/test_sweep.cpp locks this down).
//
// Exception policy: all jobs are always joined; the first failure (by
// input index, not completion order) is rethrown after the join
// (util/thread_pool's join_all).
#pragma once

#include <cstddef>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace skp {

// Runs job(0), ..., job(n-1) on `pool` and returns their results in index
// order. `Job` is any callable std::size_t -> R; R needs to be movable.
// Jobs must be self-contained (own their RNG streams, no shared mutable
// state) — that is what makes the fan-out result-equivalent to a serial
// loop.
template <typename Job>
auto sweep_points(ThreadPool& pool, std::size_t n, Job&& job)
    -> std::vector<decltype(job(std::size_t{0}))> {
  using R = decltype(job(std::size_t{0}));
  std::vector<std::optional<R>> slots(n);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&slots, &job, i] {
      slots[i].emplace(job(i));
    }));
  }
  // Join everything before rethrowing: a failed job must not leave
  // siblings running with dangling references to `slots`/`job`.
  join_all(futures);

  std::vector<R> results;
  results.reserve(n);
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

// Convenience overload: one job per element of `configs`, invoked as
// job(config) with the config copied into the task (safe for temporaries).
template <typename Config, typename Job>
auto sweep_configs(ThreadPool& pool, const std::vector<Config>& configs,
                   Job&& job) -> std::vector<decltype(job(configs[0]))> {
  return sweep_points(pool, configs.size(),
                      [&](std::size_t i) { return job(configs[i]); });
}

}  // namespace skp
