// Work-queue thread pool + parallel_for, the HPC-parallel substrate.
//
// Monte-Carlo experiments decompose into independent (sweep point ×
// iteration block) tasks; each task derives its own RNG stream so results
// are identical regardless of thread count or interleaving. The pool is a
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

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  // Enqueues a task; the future reports completion / exception.
  std::future<void> submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

// Waits for every future, then rethrows the first failure by index (not
// by completion order). Tasks that borrow the caller's locals must all be
// joined before the caller unwinds, so no failure returns early.
void join_all(std::vector<std::future<void>>& futures);

// Splits [0, n) into contiguous chunks and runs body(begin, end, chunk_index)
// across the pool. Blocks until all chunks complete, then rethrows the
// first exception by chunk index (join_all). chunk_index is stable, so
// callers can use it to derive deterministic per-chunk RNG streams.
void parallel_chunks(ThreadPool& pool, std::size_t n, std::size_t chunks,
                     const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& body);

}  // namespace skp
