// Work-queue thread pool, the substrate of the sweep driver.
//
// Figure sweeps decompose into independent sweep-point tasks; each task
// derives its own RNG stream so results are identical regardless of
// thread count or interleaving (sim/sweep.hpp). The pool is a
// classic mutex/condvar work queue — on the evaluation machines used here
// core counts are small, so simplicity beats lock-free cleverness.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace skp {

// The most workers a pool starts; a larger explicit count is a typo, not
// a machine.
inline constexpr std::size_t kMaxThreads = 1024;

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency (min 1). A count above
  // kMaxThreads throws std::invalid_argument before any worker starts.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  // Enqueues a task; the future reports completion / exception.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Waits for every future, then rethrows the first failure by index (not
// by completion order). Tasks that borrow the caller's locals must all be
// joined before the caller unwinds, so no failure returns early.
void join_all(std::vector<std::future<void>>& futures);

}  // namespace skp
