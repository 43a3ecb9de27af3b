#include "workload/request_stream.hpp"

#include "util/require.hpp"

namespace skp {

ItemId sample_categorical(std::span<const double> p, Rng& rng) {
  SKP_REQUIRE(!p.empty(), "sample_categorical over empty vector");
  const double u = rng.next_double();
  double cum = 0.0;
  std::size_t last_positive = 0;
  bool any = false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0.0) {
      last_positive = i;
      any = true;
      cum += p[i];
      if (u < cum) return static_cast<ItemId>(i);
    }
  }
  SKP_REQUIRE(any, "sample_categorical: all probabilities zero");
  return static_cast<ItemId>(last_positive);  // fp round-off fallback
}

}  // namespace skp
