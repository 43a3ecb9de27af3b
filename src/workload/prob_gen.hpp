// Next-access probability generators (Section 4.4 of the paper).
//
// The paper evaluates with two unnamed generators: the "skewy method"
// ("generates a situation where the next request is highly predictable")
// and the "flat method" ("a less predictable situation"). Neither is
// specified further, so we define them precisely (DESIGN.md, D2):
//
//   * flat : P = normalized Exp(1) draws — a symmetric Dirichlet(1) sample,
//            the canonical "uniform over the probability simplex".
//   * skewy: P = normalized u_i^k with u_i ~ U(0,1) and skew exponent k
//            (default 8). One item typically carries 60–95 % of the mass.
//
// Zipf and explicit Dirichlet(alpha) generators are provided as extensions
// for sensitivity sweeps.
#pragma once

#include <vector>

#include "util/enum_tokens.hpp"
#include "util/rng.hpp"

namespace skp {

enum class ProbMethod { Skewy, Flat };

inline constexpr EnumToken<ProbMethod> kProbMethodTokens[] = {
    {"skewy", ProbMethod::Skewy},
    {"flat", ProbMethod::Flat},
};

// Draws an n-vector of next-access probabilities (sums to 1).
std::vector<double> generate_probabilities(std::size_t n, ProbMethod method,
                                           Rng& rng,
                                           double skew_exponent = 8.0);

// Allocation-free variant: draws into `out` (resized to n, capacity
// reused) and normalizes in place. Bit-identical to
// generate_probabilities; the Monte-Carlo loops that redraw P every
// iteration use this form.
void generate_probabilities_into(std::size_t n, ProbMethod method, Rng& rng,
                                 std::vector<double>& out,
                                 double skew_exponent = 8.0);

std::vector<double> flat_probabilities(std::size_t n, Rng& rng);
std::vector<double> skewy_probabilities(std::size_t n, Rng& rng,
                                        double exponent = 8.0);

// Zipf(s) probabilities over ranks 1..n, optionally shuffled so item id is
// uncorrelated with rank.
std::vector<double> zipf_probabilities(std::size_t n, double s, Rng& rng,
                                       bool shuffle = true);

// Symmetric Dirichlet(alpha) sample via Gamma(alpha, 1) draws
// (Marsaglia–Tsang). alpha = 1 coincides with flat_probabilities.
std::vector<double> dirichlet_probabilities(std::size_t n, double alpha,
                                            Rng& rng);

// Entropy (nats) of a probability vector — the predictability measure used
// by tests to verify that skewy is materially more predictable than flat.
double entropy(const std::vector<double>& p);

const char* to_string(ProbMethod m);

}  // namespace skp
