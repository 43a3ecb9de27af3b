// Multi-access lookahead (extension; paper Section 6).
//
// "The SKP algorithm considers only one access ahead. Obviously, looking
// ahead deeper will improve the performance. However, the complexity of
// the problem can be daunting." This module implements the tractable
// middle ground the paper gestures at: keep the one-access SKP machinery
// but feed it a *horizon-blended* probability vector
//
//   P_h = (1 - w) * P^(1) + w * P^(2),   P^(2)[j] = sum_k P^(1)[k] R[k][j]
//
// (and so on for deeper horizons with geometric weights), where R is the
// chain's transition matrix. Items likely needed within the next few
// accesses get prefetched now and survive in the cache until used — the
// benefit deep lookahead buys — while planning stays a single SKP solve.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "workload/markov_chain.hpp"

namespace skp {

// Blends transition probabilities over `horizon` future steps starting
// from `state`. horizon == 1 returns the plain row (the paper's setting).
// `decay` in (0, 1] geometrically down-weights deeper steps: step d gets
// weight decay^(d-1); weights are normalized to sum to 1. Steps walk
// successor lists in ascending state order, so the result is the matrix
// overload's bit for bit.
std::vector<double> horizon_probabilities(const MarkovChain& chain,
                                          std::size_t state,
                                          std::size_t horizon,
                                          double decay = 0.5);

// Buffer-reusing variant: writes the blended distribution into `out`
// (resized to n, capacity reused). Each call still allocates its step
// buffers of n doubles; horizon is small and the mode is an extension.
void horizon_probabilities_into(const MarkovChain& chain, std::size_t state,
                                std::size_t horizon, double decay,
                                std::vector<double>& out);

// Same computation from an explicit dense transition matrix (row-major,
// n x n); `first_row` is the step-1 distribution.
std::vector<double> horizon_probabilities(
    const std::vector<std::vector<double>>& matrix,
    const std::vector<double>& first_row, std::size_t horizon,
    double decay = 0.5);

}  // namespace skp
