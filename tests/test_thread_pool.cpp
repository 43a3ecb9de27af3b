#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace skp {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ExplicitThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, RejectsCountPastTheCap) {
  // The check runs before the first worker starts, so this starts none.
  EXPECT_THROW(ThreadPool(kMaxThreads + 1), std::invalid_argument);
}

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> x{0};
  pool.submit([&] { x = 42; }).get();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(JoinAll, RethrowsFirstFailureByIndexAfterJoiningAll) {
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  std::vector<std::future<void>> futs;
  futs.push_back(pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++finished;
    throw std::runtime_error("first by index");
  }));
  futs.push_back(pool.submit([&] {
    ++finished;
    throw std::logic_error("first to finish");
  }));
  futs.push_back(pool.submit([&] { ++finished; }));
  EXPECT_THROW(join_all(futs), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace skp
