// Request draws shared by the simulators, tests and examples. Markov
// walks live on MarkovChain (workload/markov_chain.hpp), trace-backed
// replay in workload/trace.hpp.
#pragma once

#include <span>

#include "core/item.hpp"
#include "util/rng.hpp"

namespace skp {

// Samples an index from a dense probability vector.
ItemId sample_categorical(std::span<const double> p, Rng& rng);

}  // namespace skp
