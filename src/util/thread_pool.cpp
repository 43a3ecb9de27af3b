#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "util/require.hpp"

namespace skp {

ThreadPool::ThreadPool(std::size_t threads) {
  SKP_REQUIRE(threads <= kMaxThreads,
              threads << " worker threads exceed the cap of " << kMaxThreads);
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  auto fut = pt.get_future();
  {
    std::lock_guard lk(mu_);
    SKP_REQUIRE(!stop_, "submit on stopped ThreadPool");
    queue_.push(std::move(pt));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_failure;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_failure) first_failure = std::current_exception();
    }
  }
  if (first_failure) std::rethrow_exception(first_failure);
}

}  // namespace skp
