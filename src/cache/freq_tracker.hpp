// Access-frequency bookkeeping for sub-arbitration (Section 5.2).
//
// The paper's DS-arbitration scores cached items by the "delay-saving
// profit" freq_i * r_i (a simplified WATCHMAN metric); LFU sub-arbitration
// uses freq_i alone.
#pragma once

#include <cstdint>
#include <vector>

#include "core/item.hpp"

namespace skp {

class FreqTracker {
 public:
  // Tracks items 0..n-1.
  explicit FreqTracker(std::size_t n);

  std::size_t n() const noexcept { return counts_.size(); }

  // Records one access to `item`. Inline: the sim loops record every
  // request, and the LFU/DS victim-ranking path reads scores hundreds of
  // millions of times per sweep — keeping these in the header removes a
  // cross-TU call per touch.
  void record(ItemId item) {
    SKP_REQUIRE(
        item >= 0 && static_cast<std::size_t>(item) < counts_.size(),
        "item " << item << " out of range");
    counts_[static_cast<std::size_t>(item)] += 1.0;
    ++total_;
  }

  // Access count of `item`.
  double frequency(ItemId item) const {
    SKP_REQUIRE(
        item >= 0 && static_cast<std::size_t>(item) < counts_.size(),
        "item " << item << " out of range");
    return counts_[static_cast<std::size_t>(item)];
  }

  // Delay-saving profit freq_i * r_i with retrieval time supplied by the
  // caller (the tracker does not own resource parameters).
  double delay_saving_profit(ItemId item, double retrieval_time) const {
    return frequency(item) * retrieval_time;
  }

  std::uint64_t total_accesses() const noexcept { return total_; }

  void reset();

 private:
  std::vector<double> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace skp
