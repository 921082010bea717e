// Small numeric helpers used across radloc.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>

namespace radloc {

inline constexpr double kPi = 3.14159265358979323846;

[[nodiscard]] constexpr double square(double v) { return v * v; }

/// Uniform-grid binning along one axis: floor(t) clamped to [0, count - 1],
/// NaN to 0, for t = (coordinate - origin) / pitch. Clamping before the
/// conversion keeps points far outside the grid well-defined, and
/// truncating a non-negative t is floor(t) without a libm call.
[[nodiscard]] constexpr std::size_t clamped_cell(double t, std::size_t count) {
  if (!(t >= 0.0)) return 0;
  if (t >= static_cast<double>(count - 1)) return count - 1;
  return static_cast<std::size_t>(t);
}

/// log(n!) via lgamma. Stable for the large CPM counts Eq. (4) produces.
/// Uses the reentrant lgamma_r where available: glibc's lgamma() writes the
/// global `signgam`, which is a (benign but TSan-reported) data race when
/// parallel trials score weights concurrently.
[[nodiscard]] inline double log_factorial(double n) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(n + 1.0, &sign);
#else
  return std::lgamma(n + 1.0);
#endif
}

/// Log-PMF of a Poisson(lambda) distribution at integer count k (k passed as
/// double because CPM counts can be large). Returns -inf for lambda <= 0 with
/// k > 0, and 0 for lambda == 0, k == 0.
[[nodiscard]] double poisson_log_pmf(double k, double lambda);

/// Poisson log-PMF with the count k fixed: log(k!) is paid once at
/// construction instead of per evaluation. This is the weight-update hot-path
/// kernel — one measurement is scored against thousands of hypothesized
/// rates, and lgamma dominates the naive per-particle poisson_log_pmf.
/// Evaluation order matches poisson_log_pmf exactly, so results are
/// bit-identical to the free function.
class PoissonLogPmf {
 public:
  explicit PoissonLogPmf(double k)
      : k_(k), log_k_factorial_(k >= 0.0 ? log_factorial(k) : 0.0) {}

  [[nodiscard]] double count() const { return k_; }

  /// The hoisted log(k!) term (0.0 when k < 0) — lets the batch kernels
  /// (simd/simd.hpp) replay operator() over whole rate arrays.
  [[nodiscard]] double log_k_factorial() const { return log_k_factorial_; }

  [[nodiscard]] double operator()(double lambda) const {
    if (k_ < 0.0) return -std::numeric_limits<double>::infinity();
    if (lambda <= 0.0) {
      return k_ == 0.0 ? 0.0 : -std::numeric_limits<double>::infinity();
    }
    return k_ * std::log(lambda) - lambda - log_k_factorial_;
  }

 private:
  double k_;
  double log_k_factorial_;
};

/// PMF of Poisson(lambda) at k; exp of the above.
[[nodiscard]] double poisson_pmf(double k, double lambda);

/// Numerically stable log(sum(exp(v))) over a span.
[[nodiscard]] double log_sum_exp(std::span<const double> v);

/// Streaming mean/variance/min/max accumulator (Welford).
class RunningStats {
 public:
  void add(double v) {
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Throws std::invalid_argument with `msg` when `cond` is false. Used to
/// validate public-API preconditions (Core Guidelines I.5/I.10).
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

}  // namespace radloc
