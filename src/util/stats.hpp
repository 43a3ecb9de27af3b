// Statistics substrate: online accumulators, binned means and exact
// summaries of a stored sample. Every experiment in bench/ reports
// through these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace skp {

// Welford online accumulator: numerically stable mean/variance without
// storing samples. Mergeable so parallel shards can be combined.
class OnlineStats {
 public:
  void add(double x) noexcept;
  // Merges another accumulator (parallel reduction step).
  void merge(const OnlineStats& other) noexcept;

  // Reconstructs an accumulator from its raw state — the inverse of the
  // (count, mean, m2, min, max) accessors, so an accumulator can round-
  // trip a wire/persistence boundary exactly (the skpd protocol ships
  // session metrics this way). n == 0 yields a fresh accumulator.
  static OnlineStats restore(std::size_t n, double mean, double m2,
                             double min, double max) noexcept {
    OnlineStats s;
    if (n == 0) return s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }
  // Sum of squared deviations from the mean (restore()'s m2 input).
  double m2() const noexcept { return m2_; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Mean of y conditioned on an integer-binned x — the paper's Fig. 5/7
// "average T against v" curves are exactly this.
class BinnedMeans {
 public:
  // Bins are the integers lo..hi inclusive.
  BinnedMeans(std::int64_t lo, std::int64_t hi);

  void add(std::int64_t x, double y);
  // Merges another BinnedMeans with identical range (parallel reduction).
  void merge(const BinnedMeans& other);
  std::int64_t lo() const noexcept { return lo_; }
  std::int64_t hi() const noexcept { return hi_; }
  const OnlineStats& bin(std::int64_t x) const;

  // (x, mean) series over non-empty bins.
  std::vector<std::pair<double, double>> series() const;

 private:
  std::int64_t lo_, hi_;
  std::vector<OnlineStats> bins_;
};

// Exact descriptive statistics over a stored sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0, stddev = 0, min = 0, p25 = 0, median = 0, p75 = 0,
         p95 = 0, max = 0;
};

// Computes a Summary (copies and sorts the data).
Summary summarize(std::span<const double> data);

// Linear-interpolated quantile of a *sorted* sample, q in [0,1].
double quantile_sorted(std::span<const double> sorted, double q);

}  // namespace skp
