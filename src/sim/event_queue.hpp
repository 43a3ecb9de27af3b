// Minimal discrete-event simulation core.
//
// A time-ordered queue of closures with stable FIFO ordering among events
// scheduled for the same instant (seq number breaks ties), plus a simulated
// clock. Header-only; the netsim builds on it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/require.hpp"

namespace skp {

class EventQueue {
 public:
  using Action = std::function<void()>;

  double now() const noexcept { return now_; }
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  // Schedules `action` at absolute time `when` (>= now).
  void schedule_at(double when, Action action) {
    SKP_REQUIRE(when >= now_, "schedule_at(" << when << ") before now="
                                             << now_);
    heap_.push(Event{when, seq_++, std::move(action)});
  }

  // Schedules `action` `delay` time units from now.
  void schedule_in(double delay, Action action) {
    SKP_REQUIRE(delay >= 0.0, "negative delay " << delay);
    schedule_at(now_ + delay, std::move(action));
  }

  // Absolute time of the earliest pending event; requires !empty().
  // Lets a real-time wrapper (the skpd daemon runs this queue against
  // the wall clock) sleep in poll() exactly until the next timer.
  double next_when() const {
    SKP_REQUIRE(!heap_.empty(), "next_when() on an empty event queue");
    return heap_.top().when;
  }

  // Runs the earliest event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    // Take the event out before pop so the action may schedule more
    // events — by MOVE, not copy: top() is const&, but the element is
    // popped immediately, so stealing the closure is safe (the ordering
    // keys `when`/`seq` are trivially copied and stay valid for pop()'s
    // sift-down comparisons). A copy here would clone the
    // std::function and every capture once per event, the dominant
    // per-event overhead for capture-heavy DES closures.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.when;
    ev.action();
    return true;
  }

  // Runs until empty or until the clock passes `horizon` (inclusive).
  void run_until(double horizon) {
    while (!heap_.empty() && heap_.top().when <= horizon) step();
    if (now_ < horizon) now_ = horizon;
  }

  // Drains every event (use only when the event set is known finite).
  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Event {
    double when;
    std::uint64_t seq;
    Action action;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
};

}  // namespace skp
