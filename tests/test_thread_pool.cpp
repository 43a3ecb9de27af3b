#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
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

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ParallelChunks, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> touched(n);
  parallel_chunks(pool, n, 7,
                  [&](std::size_t b, std::size_t e, std::size_t) {
                    for (std::size_t i = b; i < e; ++i) ++touched[i];
                  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelChunks, ChunkIndicesAreStable) {
  ThreadPool pool(2);
  std::vector<std::size_t> chunk_of(10, 999);
  std::mutex mu;
  parallel_chunks(pool, 10, 3,
                  [&](std::size_t b, std::size_t e, std::size_t c) {
                    const std::lock_guard lk(mu);
                    for (std::size_t i = b; i < e; ++i) chunk_of[i] = c;
                  });
  // Chunks are contiguous and ordered.
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_GE(chunk_of[i], chunk_of[i - 1]);
  }
  EXPECT_EQ(chunk_of.front(), 0u);
}

TEST(ParallelChunks, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_chunks(pool, 0, 4,
                  [&](std::size_t, std::size_t, std::size_t) {
                    called = true;
                  });
  EXPECT_FALSE(called);
}

TEST(ParallelChunks, MoreChunksThanItems) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_chunks(pool, 3, 10,
                  [&](std::size_t b, std::size_t e, std::size_t) {
                    total += static_cast<int>(e - b);
                  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelChunks, ZeroChunksThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(
      parallel_chunks(pool, 5, 0,
                      [](std::size_t, std::size_t, std::size_t) {}),
      std::invalid_argument);
}

TEST(ParallelChunks, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_chunks(pool, 10, 2,
                      [](std::size_t b, std::size_t, std::size_t) {
                        if (b == 0) throw std::runtime_error("chunk fail");
                      }),
      std::runtime_error);
}

TEST(ParallelChunks, JoinsEveryChunkBeforeRethrowing) {
  // Chunk 0 throws at once; chunk 1 then watches for the call to return
  // while it is still running. Joining every chunk first means it never
  // can. The shared state and `body` are declared before the pool, so
  // they outlive its workers even when the call does return early.
  std::atomic<bool> thrown{false};
  std::atomic<bool> returned{false};
  std::atomic<bool> sibling_saw_return{false};
  const std::function<void(std::size_t, std::size_t, std::size_t)> body =
      [&](std::size_t, std::size_t, std::size_t chunk) {
        if (chunk == 0) {
          thrown = true;
          throw std::runtime_error("chunk 0 fails");
        }
        while (!thrown) std::this_thread::yield();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
        while (std::chrono::steady_clock::now() < deadline) {
          if (returned) {
            sibling_saw_return = true;
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
  ThreadPool pool(2);
  try {
    parallel_chunks(pool, 2, 2, body);
    ADD_FAILURE() << "chunk 0's exception was not rethrown";
  } catch (const std::runtime_error&) {
    returned = true;
  }
  pool.wait_idle();
  EXPECT_FALSE(sibling_saw_return);
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
