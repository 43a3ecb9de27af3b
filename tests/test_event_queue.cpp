#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace skp {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, ProcessesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoAmongSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(2.0, [&] { q.schedule_in(3.0, [&] { fired_at = q.now(); }); });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.run_until(42.0);
  EXPECT_DOUBLE_EQ(q.now(), 42.0);
}

TEST(EventQueue, EventsMaySpawnEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> spawn = [&] {
    if (++depth < 5) q.schedule_in(1.0, spawn);
  };
  q.schedule_at(0.0, spawn);
  q.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, DispatchDoesNotCopyTheScheduledClosure) {
  // step() must MOVE the popped event out of the heap; the historical
  // `Event ev = heap_.top()` copy re-allocated every captured state once
  // per dispatched event, which dominated dense DES runs.
  auto copies = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> copies;
    explicit Probe(std::shared_ptr<int> c) : copies(std::move(c)) {}
    Probe(const Probe& o) : copies(o.copies) { ++*copies; }
    Probe(Probe&& o) noexcept = default;
  };
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 4; ++i) {
    q.schedule_at(static_cast<double>(i),
                  [p = Probe(copies), &fired] { ++fired; });
  }
  // Wrapping the lambdas into std::function may copy during scheduling;
  // only the dispatch path is under test.
  *copies = 0;
  q.run_all();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(*copies, 0) << "dispatch must move events out of the heap";
}

TEST(EventQueue, RunUntilInclusiveOfHorizonEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace skp
