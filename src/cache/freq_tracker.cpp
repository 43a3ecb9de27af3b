#include "cache/freq_tracker.hpp"

namespace skp {

FreqTracker::FreqTracker(std::size_t n) : counts_(n, 0.0) {
  SKP_REQUIRE(n > 0, "FreqTracker over empty catalog");
}

void FreqTracker::reset() {
  counts_.assign(counts_.size(), 0.0);
  total_ = 0;
}

}  // namespace skp
