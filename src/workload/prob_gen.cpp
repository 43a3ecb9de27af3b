#include "workload/prob_gen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/item.hpp"
#include "util/require.hpp"

namespace skp {

namespace {

// In-place normalization with the same checks and arithmetic as
// normalize_probabilities (each entry is divided by the plain left-to-
// right sum, so results are bit-identical).
void normalize_in_place(std::vector<double>& w) {
  SKP_REQUIRE(!w.empty(), "normalize_in_place: empty input");
  double sum = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    SKP_REQUIRE(w[i] >= 0.0 && std::isfinite(w[i]),
                "weight[" << i << "] = " << w[i]);
    sum += w[i];
  }
  SKP_REQUIRE(sum > 0.0, "normalize_in_place: all weights zero");
  for (double& x : w) x /= sum;
}

}  // namespace

void generate_probabilities_into(std::size_t n, ProbMethod method, Rng& rng,
                                 std::vector<double>& out,
                                 double skew_exponent) {
  SKP_REQUIRE(n > 0, "generate_probabilities_into(n=0)");
  out.resize(n);
  switch (method) {
    case ProbMethod::Skewy:
      SKP_REQUIRE(skew_exponent > 0.0, "skew exponent must be positive");
      for (auto& x : out) {
        const double u = rng.next_double();
        x = std::pow(u, skew_exponent) + 1e-12;  // keep strictly positive
      }
      break;
    case ProbMethod::Flat:
      for (auto& x : out) x = rng.exponential(1.0);
      break;
  }
  normalize_in_place(out);
}

std::vector<double> flat_probabilities(std::size_t n, Rng& rng) {
  std::vector<double> p;
  generate_probabilities_into(n, ProbMethod::Flat, rng, p);
  return p;
}

std::vector<double> skewy_probabilities(std::size_t n, Rng& rng,
                                        double exponent) {
  std::vector<double> p;
  generate_probabilities_into(n, ProbMethod::Skewy, rng, p, exponent);
  return p;
}

std::vector<double> generate_probabilities(std::size_t n, ProbMethod method,
                                           Rng& rng, double skew_exponent) {
  std::vector<double> p;
  generate_probabilities_into(n, method, rng, p, skew_exponent);
  return p;
}

std::vector<double> zipf_probabilities(std::size_t n, double s, Rng& rng,
                                       bool shuffle) {
  SKP_REQUIRE(n > 0, "zipf_probabilities(n=0)");
  SKP_REQUIRE(s >= 0.0, "zipf exponent must be >= 0");
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
  }
  if (shuffle) rng.shuffle(w);
  return normalize_probabilities(w);
}

namespace {

// Marsaglia–Tsang Gamma(alpha, 1) sampler (alpha > 0); for alpha < 1 uses
// the boost trick Gamma(alpha) = Gamma(alpha+1) * U^(1/alpha).
double gamma_draw(double alpha, Rng& rng) {
  if (alpha < 1.0) {
    const double u = std::max(rng.next_double(), 1e-300);
    return gamma_draw(alpha + 1.0, rng) * std::pow(u, 1.0 / alpha);
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    // Box–Muller normal draw.
    const double u1 = std::max(rng.next_double(), 1e-300);
    const double u2 = rng.next_double();
    const double x =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double vcub = 1.0 + c * x;
    if (vcub <= 0.0) continue;
    const double v = vcub * vcub * vcub;
    const double u = rng.next_double();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(std::max(u, 1e-300)) <
        0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v;
  }
}

}  // namespace

std::vector<double> dirichlet_probabilities(std::size_t n, double alpha,
                                            Rng& rng) {
  SKP_REQUIRE(n > 0, "dirichlet_probabilities(n=0)");
  SKP_REQUIRE(alpha > 0.0, "dirichlet alpha must be positive");
  std::vector<double> w(n);
  for (auto& x : w) x = gamma_draw(alpha, rng) + 1e-300;
  return normalize_probabilities(w);
}

double entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double x : p) {
    if (x > 0.0) h -= x * std::log(x);
  }
  return h;
}

const char* to_string(ProbMethod m) {
  return token_of<ProbMethod>(kProbMethodTokens, m);
}

}  // namespace skp
