// Parity and dispatch tests for the batch kernel tiers (simd/simd.hpp).
//
// Contract under test (DESIGN.md §5.7):
//   * the scalar tier replays the seed's per-element expressions bit for
//     bit (PoissonLogPmf, expected_cpm_single_free_space, the cached
//     Eq. (3) rate, TransmissionCache::transmission, max scan, exp);
//   * vector tiers match scalar exactly on every special value (lambda
//     <= 0, denormals, inf, NaN, k = 0, k < 0, out-of-range exp args) —
//     those lanes are patched with the scalar expression — and to ~1 ulp
//     relative on in-range log/exp;
//   * everything that is pure arithmetic (rates, bilinear, max,
//     Epanechnikov) is bit-identical across ALL tiers;
//   * remainder lanes (n % width != 0) go through the same padded vector
//     path, so results never depend on how a range is chunked.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "radloc/common/math.hpp"
#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/geom/polygon.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/radiation/transmission_cache.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/simd/aligned.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();

/// Bitwise equality — the only meaningful comparison for "identical
/// including NaN payloads and signed zeros".
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string hex_bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Every tier the host can run (scalar always; vector tiers if detected).
std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::detected_tier() >= simd::Tier::kSse2) tiers.push_back(simd::Tier::kSse2);
  if (simd::detected_tier() >= simd::Tier::kAvx2) tiers.push_back(simd::Tier::kAvx2);
  return tiers;
}

/// Sizes that cover full vectors, remainder lanes, and the empty range.
const std::vector<std::size_t> kSizes{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 129};

struct TierGuard {
  explicit TierGuard(simd::Tier t) { simd::force_tier(t); }
  ~TierGuard() { simd::reset_tier(); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
};

std::vector<double> random_lambdas(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    // Log-uniform over the dynamic range a filter actually sees (background
    // CPM units up to wildly hot hypotheses).
    x = std::exp(uniform(rng, std::log(1e-6), std::log(1e8)));
  }
  return v;
}

TEST(SimdDispatch, ParseTierAcceptsKnownNamesOnly) {
  EXPECT_EQ(simd::parse_tier("scalar"), simd::Tier::kScalar);
  EXPECT_EQ(simd::parse_tier("sse2"), simd::Tier::kSse2);
  EXPECT_EQ(simd::parse_tier("avx2"), simd::Tier::kAvx2);
  EXPECT_EQ(simd::parse_tier("auto"), simd::detected_tier());
  EXPECT_FALSE(simd::parse_tier("AVX2").has_value());
  EXPECT_FALSE(simd::parse_tier("").has_value());
  EXPECT_FALSE(simd::parse_tier("avx512").has_value());
  EXPECT_FALSE(simd::parse_tier(nullptr).has_value());
}

TEST(SimdDispatch, TablesReportTheirOwnTier) {
  for (const auto t : host_tiers()) {
    const simd::Kernels& k = simd::kernels_for(t);
    EXPECT_EQ(k.tier, t);
    EXPECT_STREQ(k.name, simd::tier_name(t));
    EXPECT_NE(k.poisson_log_pmf, nullptr);
    EXPECT_NE(k.bilinear, nullptr);  // tiers without a native one inherit scalar
  }
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
}

TEST(SimdDispatch, RequestsAboveDetectedClampDown) {
  const simd::Kernels& k = simd::kernels_for(simd::Tier::kAvx2);
  EXPECT_LE(k.tier, simd::detected_tier());
}

TEST(SimdDispatch, ForceTierRoutesTheActiveTable) {
  const simd::Tier before = simd::active_tier();
  for (const auto t : host_tiers()) {
    TierGuard guard(t);
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_EQ(simd::kernels().tier, t);
  }
  EXPECT_EQ(simd::active_tier(), before);  // reset restores env/default resolution
  EXPECT_EQ(simd::kernels().tier, before);
}

TEST(SimdDispatch, SweepTiersCoversScalarThroughDetected) {
  const auto tiers = simd::sweep_tiers();
  ASSERT_FALSE(tiers.empty());
  if (!simd::tier_pinned_by_env()) {
    EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
    EXPECT_EQ(tiers.back(), simd::detected_tier());
    EXPECT_EQ(tiers.size(), static_cast<std::size_t>(simd::detected_tier()) + 1);
  } else {
    EXPECT_EQ(tiers.size(), 1u);
    EXPECT_EQ(tiers.front(), simd::active_tier());
  }
}

// ---------------------------------------------------------------------------
// Poisson log-PMF

TEST(SimdPoisson, ScalarTierBitIdenticalToPoissonLogPmf) {
  const auto lambdas = random_lambdas(257, 101);
  const simd::Kernels& ker = simd::kernels_for(simd::Tier::kScalar);
  for (const double k : {0.0, 1.0, 3.0, 7.0, 120.0, 4096.0, -2.0}) {
    const PoissonLogPmf pmf(k);
    std::vector<double> out(lambdas.size());
    ker.poisson_log_pmf(pmf.count(), pmf.log_k_factorial(), lambdas.data(), out.data(),
                        lambdas.size());
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      ASSERT_TRUE(same_bits(out[i], pmf(lambdas[i])))
          << "k=" << k << " lambda=" << lambdas[i] << " got " << hex_bits(out[i]) << " want "
          << hex_bits(pmf(lambdas[i]));
    }
  }
}

TEST(SimdPoisson, SpecialLambdasExactInEveryTier) {
  // Special lanes are patched with the scalar expression, so every tier
  // must return the exact scalar bits — including the k == 0 / lambda <= 0
  // edge table and NaN propagation.
  const std::vector<double> lambdas{0.0,
                                    -0.0,
                                    -3.5,
                                    5e-324,  // denormal
                                    1e-310,  // denormal
                                    2.2250738585072014e-308,  // smallest normal: vector path
                                    1.0,
                                    kInf,
                                    -kInf,
                                    kNan,
                                    3.5};
  const simd::Kernels& scalar = simd::kernels_for(simd::Tier::kScalar);
  for (const double k : {0.0, 5.0, -1.0}) {
    const PoissonLogPmf pmf(k);
    std::vector<double> want(lambdas.size());
    scalar.poisson_log_pmf(pmf.count(), pmf.log_k_factorial(), lambdas.data(), want.data(),
                           lambdas.size());
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      ASSERT_TRUE(same_bits(want[i], pmf(lambdas[i]))) << "scalar tier drifted from seed";
    }
    for (const auto t : host_tiers()) {
      const simd::Kernels& ker = simd::kernels_for(t);
      // Also exercise the documented in-place aliasing (out == lambda):
      // patched lanes must read their inputs before the store clobbers them.
      std::vector<double> inplace = lambdas;
      ker.poisson_log_pmf(pmf.count(), pmf.log_k_factorial(), inplace.data(), inplace.data(),
                          inplace.size());
      for (std::size_t i = 0; i < lambdas.size(); ++i) {
        ASSERT_TRUE(same_bits(inplace[i], want[i]))
            << simd::tier_name(t) << " k=" << k << " lambda=" << lambdas[i] << " got "
            << hex_bits(inplace[i]) << " want " << hex_bits(want[i]);
      }
    }
  }
}

TEST(SimdPoisson, VectorTiersMatchScalarWithinTolerance) {
  for (const std::size_t n : kSizes) {
    const auto lambdas = random_lambdas(n, 202 + n);
    for (const double k : {0.0, 1.0, 64.0, 5000.0}) {
      const PoissonLogPmf pmf(k);
      std::vector<double> want(n);
      simd::kernels_for(simd::Tier::kScalar)
          .poisson_log_pmf(pmf.count(), pmf.log_k_factorial(), lambdas.data(), want.data(), n);
      for (const auto t : host_tiers()) {
        std::vector<double> got(n, kNan);
        simd::kernels_for(t).poisson_log_pmf(pmf.count(), pmf.log_k_factorial(), lambdas.data(),
                                             got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          // The only tier-divergent ops are log/exp (~1 ulp relative); the
          // bound scales with the magnitudes feeding the cancellation.
          const double tol =
              1e-13 * (1.0 + std::abs(k * std::log(lambdas[i])) + lambdas[i] +
                       pmf.log_k_factorial());
          ASSERT_NEAR(got[i], want[i], tol)
              << simd::tier_name(t) << " n=" << n << " k=" << k << " lambda=" << lambdas[i];
        }
      }
    }
  }
}

TEST(SimdPoisson, MultiKMatchesPerElementSeedAndAllTiers) {
  for (const std::size_t n : kSizes) {
    auto lambdas = random_lambdas(n, 303 + n);
    std::vector<double> ks(n);
    std::vector<double> log_kf(n);
    Rng rng(404 + n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix regular counts with the edge table: k = 0, k < 0, lambda <= 0.
      const double draw = uniform01(rng);
      if (draw < 0.1) {
        ks[i] = 0.0;
      } else if (draw < 0.2) {
        ks[i] = -1.0;
      } else {
        ks[i] = std::floor(uniform(rng, 0.0, 500.0));
      }
      if (uniform01(rng) < 0.15) lambdas[i] = uniform01(rng) < 0.5 ? 0.0 : -2.0;
      const PoissonLogPmf pmf(ks[i]);
      log_kf[i] = pmf.log_k_factorial();
    }

    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = PoissonLogPmf(ks[i])(lambdas[i]);

    // Scalar tier: bit-identical to the seed's per-element evaluation.
    std::vector<double> got(n);
    simd::kernels_for(simd::Tier::kScalar)
        .poisson_log_pmf_multi(ks.data(), log_kf.data(), lambdas.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(got[i], want[i])) << "i=" << i << " k=" << ks[i];
    }

    // Vector tiers: tolerance in range, exact on patched lanes; in place.
    for (const auto t : host_tiers()) {
      std::vector<double> inplace = lambdas;
      simd::kernels_for(t).poisson_log_pmf_multi(ks.data(), log_kf.data(), inplace.data(),
                                                 inplace.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (ks[i] < 0.0 || lambdas[i] <= 0.0) {
          ASSERT_TRUE(same_bits(inplace[i], want[i]))
              << simd::tier_name(t) << " edge lane i=" << i;
        } else {
          const double tol = 1e-13 * (1.0 + std::abs(ks[i] * std::log(lambdas[i])) +
                                      lambdas[i] + log_kf[i]);
          ASSERT_NEAR(inplace[i], want[i], tol) << simd::tier_name(t) << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdPoisson, FusedRepsOneBitIdenticalToSingleK) {
  // reps == 1 must replay poisson_log_pmf bit for bit in EVERY tier
  // (1.0 * lambda is exact) — the contract that lets a size-1 fused group
  // take the single-reading path with no tolerance carve-out.
  for (const std::size_t n : kSizes) {
    auto lambdas = random_lambdas(n, 505 + n);
    if (n > 4) {
      lambdas[1] = 0.0;
      lambdas[3] = -2.0;
      lambdas[4] = kNan;
    }
    for (const double k : {0.0, 3.0, 120.0, -2.0}) {
      const PoissonLogPmf pmf(k);
      for (const auto t : host_tiers()) {
        const simd::Kernels& ker = simd::kernels_for(t);
        std::vector<double> want(n, kNan);
        ker.poisson_log_pmf(pmf.count(), pmf.log_k_factorial(), lambdas.data(), want.data(), n);
        std::vector<double> inplace = lambdas;  // documented aliasing: out == lambda
        ker.poisson_log_pmf_fused(pmf.count(), 1.0, pmf.log_k_factorial(), inplace.data(),
                                  inplace.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(inplace[i], want[i]))
              << simd::tier_name(t) << " n=" << n << " k=" << k << " lambda=" << lambdas[i]
              << " got " << hex_bits(inplace[i]) << " want " << hex_bits(want[i]);
        }
      }
    }
  }
}

TEST(SimdPoisson, FusedEdgeSemanticsExactInEveryTier) {
  // k_sum < 0 fills -inf; lambda <= 0 lanes follow the per-reading sum
  // (k_sum == 0 ? 0 : -inf); NaN/inf lambdas are patched with the scalar
  // expression — all bit-identical to the scalar tier.
  const std::vector<double> lambdas{0.0, -0.0, -3.5, 5e-324, 1.0, kInf, -kInf, kNan, 42.0};
  const std::size_t n = lambdas.size();
  const simd::Kernels& scalar = simd::kernels_for(simd::Tier::kScalar);
  for (const auto& [k_sum, reps, lfs] :
       {std::tuple{0.0, 3.0, 0.0}, {91.0, 3.0, 12.5}, {-1.0, 2.0, 0.0}}) {
    std::vector<double> want(n);
    scalar.poisson_log_pmf_fused(k_sum, reps, lfs, lambdas.data(), want.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (k_sum < 0.0) {
        ASSERT_TRUE(same_bits(want[i], -kInf)) << "i=" << i;
      } else if (lambdas[i] <= 0.0) {
        ASSERT_TRUE(same_bits(want[i], k_sum == 0.0 ? 0.0 : -kInf)) << "i=" << i;
      }
    }
    for (const auto t : host_tiers()) {
      std::vector<double> inplace = lambdas;
      simd::kernels_for(t).poisson_log_pmf_fused(k_sum, reps, lfs, inplace.data(),
                                                 inplace.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(inplace[i], want[i]))
            << simd::tier_name(t) << " k_sum=" << k_sum << " lambda=" << lambdas[i] << " got "
            << hex_bits(inplace[i]) << " want " << hex_bits(want[i]);
      }
    }
  }
}

TEST(SimdPoisson, FusedMatchesSerialSumWithinToleranceInEveryTier) {
  // The fused kernel's k_sum*log(l) - reps*l - log_fact_sum must agree with
  // serially summing the K per-reading log-PMFs, up to FP reordering.
  const std::vector<double> counts{28.0, 31.0, 0.0, 33.0, 30.0};
  double k_sum = 0.0, log_fact_sum = 0.0;
  for (const double k : counts) {
    const PoissonLogPmf pmf(k);
    k_sum += pmf.count();
    log_fact_sum += pmf.log_k_factorial();
  }
  for (const std::size_t n : kSizes) {
    const auto lambdas = random_lambdas(n, 606 + n);
    std::vector<double> want(n, 0.0);
    for (const double k : counts) {
      const PoissonLogPmf pmf(k);
      for (std::size_t i = 0; i < n; ++i) want[i] += pmf(lambdas[i]);
    }
    for (const auto t : host_tiers()) {
      std::vector<double> got(n, kNan);
      simd::kernels_for(t).poisson_log_pmf_fused(k_sum, static_cast<double>(counts.size()),
                                                 log_fact_sum, lambdas.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double tol = 1e-12 * (1.0 + std::abs(k_sum * std::log(lambdas[i])) +
                                    static_cast<double>(counts.size()) * lambdas[i] +
                                    log_fact_sum);
        ASSERT_NEAR(got[i], want[i], tol)
            << simd::tier_name(t) << " n=" << n << " lambda=" << lambdas[i];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hypothesis rates (exact in every tier)

TEST(SimdRates, FreeSpaceRatesBitIdenticalToSeedInEveryTier) {
  SensorResponse response;
  response.efficiency = 0.7;
  response.background_cpm = 5.0;
  const Point2 at{37.5, 61.25};
  const double scale = kMicroCurieToCpm * response.efficiency;

  for (const std::size_t n : kSizes) {
    Rng rng(505 + n);
    std::vector<double> x(n);
    std::vector<double> y(n);
    std::vector<double> s(n);
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = uniform(rng, 0.0, 100.0);
      y[i] = uniform(rng, 0.0, 100.0);
      s[i] = uniform(rng, 1.0, 1000.0);
      want[i] = expected_cpm_single_free_space(at, Source{{x[i], y[i]}, s[i]}, response);
    }
    for (const auto t : host_tiers()) {
      std::vector<double> got(n, kNan);
      simd::kernels_for(t).hypothesis_rates(at.x, at.y, scale, response.background_cpm, x.data(),
                                            y.data(), s.data(), nullptr, got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(got[i], want[i]))
            << simd::tier_name(t) << " n=" << n << " i=" << i << " got " << hex_bits(got[i])
            << " want " << hex_bits(want[i]);
      }
    }
  }
}

TEST(SimdRates, TransmissionWeightedRatesBitIdenticalToCachedSeedPath) {
  // The cached Eq. (3) association is scale * free_space * transmission +
  // background, evaluated as ((scale * fs) * t) + b — pin it against the
  // filter's scalar expression in every tier.
  SensorResponse response;
  response.efficiency = 1.3;
  response.background_cpm = 12.0;
  const Point2 at{10.0, 90.0};
  const double scale = kMicroCurieToCpm * response.efficiency;

  const std::size_t n = 67;
  Rng rng(606);
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<double> s(n);
  std::vector<double> trans(n);
  std::vector<double> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = uniform(rng, 0.0, 100.0);
    y[i] = uniform(rng, 0.0, 100.0);
    s[i] = uniform(rng, 1.0, 1000.0);
    trans[i] = uniform01(rng);
    want[i] = scale * free_space_intensity(at, Source{{x[i], y[i]}, s[i]}) * trans[i] +
              response.background_cpm;
  }
  for (const auto t : host_tiers()) {
    std::vector<double> got(n, kNan);
    simd::kernels_for(t).hypothesis_rates(at.x, at.y, scale, response.background_cpm, x.data(),
                                          y.data(), s.data(), trans.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(got[i], want[i])) << simd::tier_name(t) << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Bilinear grid lookups (exact in every tier)

TEST(SimdBilinear, MatchesTransmissionCacheBitwiseIncludingBoundaries) {
  Environment env(make_area(50, 40), {Obstacle(make_rect(18, 10, 30, 25), 0.4)});
  TransmissionCache cache(env, /*cell_size=*/3.0);
  const auto* field = cache.prepare({5.0, 5.0});
  ASSERT_NE(field, nullptr);
  const simd::BilinearGrid grid = cache.grid_view(*field);

  // Interior points, exact nodes, cell edges, all four out-of-bounds sides
  // (clamped), and the far corners.
  std::vector<double> xs;
  std::vector<double> ys;
  Rng rng(707);
  for (int i = 0; i < 53; ++i) {
    xs.push_back(uniform(rng, 0.0, 50.0));
    ys.push_back(uniform(rng, 0.0, 40.0));
  }
  for (const double nx : {0.0, 3.0, 6.0, 48.0, 50.0}) {
    for (const double ny : {0.0, 3.0, 39.0, 40.0}) {
      xs.push_back(nx);
      ys.push_back(ny);
    }
  }
  const std::vector<Point2> outside{{-7.0, 20.0}, {63.0, 20.0}, {25.0, -4.0},
                                    {25.0, 55.0}, {-1.0, -1.0}, {200.0, 200.0}};
  for (const auto& p : outside) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }

  std::vector<double> want(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    want[i] = cache.transmission(*field, {xs[i], ys[i]});
  }
  for (const auto t : host_tiers()) {
    std::vector<double> got(xs.size(), kNan);
    simd::kernels_for(t).bilinear(grid, xs.data(), ys.data(), got.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i], want[i]))
          << simd::tier_name(t) << " target=(" << xs[i] << "," << ys[i] << ") got "
          << hex_bits(got[i]) << " want " << hex_bits(want[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Max scan and exp-shifted (renormalization pass)

TEST(SimdMax, MatchesSeedScanWithNanSkippingInEveryTier) {
  for (const std::size_t n : kSizes) {
    Rng rng(808 + n);
    std::vector<double> v(n);
    for (auto& x : v) {
      const double draw = uniform01(rng);
      if (draw < 0.1) {
        x = kNan;
      } else if (draw < 0.2) {
        x = -kInf;
      } else {
        x = uniform(rng, -1e6, 1e6);
      }
    }
    double want = -kInf;
    for (const double x : v) {
      if (x > want) want = x;  // the seed's scan: NaN never replaces m
    }
    for (const auto t : host_tiers()) {
      const double got = simd::kernels_for(t).max_value(v.data(), n);
      ASSERT_TRUE(same_bits(got, want)) << simd::tier_name(t) << " n=" << n;
    }
  }
  // All-NaN and empty ranges report -inf, like the seed's loop.
  const std::vector<double> nans(5, kNan);
  for (const auto t : host_tiers()) {
    EXPECT_EQ(simd::kernels_for(t).max_value(nans.data(), nans.size()), -kInf);
    EXPECT_EQ(simd::kernels_for(t).max_value(nans.data(), 0), -kInf);
  }
}

TEST(SimdExp, ParityInRangeAndExactOnPatchedLanes) {
  const double shift = 3.25;
  std::vector<double> v{0.0,    1.0,   -5.5,  shift, 700.0,  // in range after the shift
                        1e4,    -1e4,  kInf,  -kInf, kNan,   // patched lanes
                        2.5,    -707.0, 711.25, 6.0,  -0.125,
                        88.75,  -3.0,  0.5,   12.0,  -250.0, 1.5};
  for (const auto t : host_tiers()) {
    // In place (the filter renormalizes in place) and out of place agree.
    std::vector<double> got(v.size(), kNan);
    std::vector<double> inplace = v;
    simd::kernels_for(t).exp_shifted(v.data(), shift, got.data(), v.size());
    simd::kernels_for(t).exp_shifted(inplace.data(), shift, inplace.data(), inplace.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i], inplace[i])) << simd::tier_name(t) << " i=" << i;
      const double arg = v[i] - shift;
      const double want = std::exp(arg);
      if (!(arg > -708.0 && arg < 708.0)) {
        // Out-of-range/NaN lanes are patched with std::exp — exact.
        ASSERT_TRUE(same_bits(got[i], want)) << simd::tier_name(t) << " arg=" << arg;
      } else {
        ASSERT_NEAR(got[i], want, 1e-13 * want + 1e-300) << simd::tier_name(t) << " arg=" << arg;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mean-shift profile

TEST(SimdMeanShift, GaussianParityAndEpanechnikovExactAcrossTiers) {
  const double cx = 20.0;
  const double cy = 30.0;
  const double cs = std::log(50.0);
  const double h2 = 25.0;
  const double hs2 = 0.5625;
  for (const std::size_t n : kSizes) {
    Rng rng(909 + n);
    std::vector<double> x(n);
    std::vector<double> y(n);
    std::vector<double> ls(n);
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = uniform(rng, 5.0, 35.0);
      y[i] = uniform(rng, 15.0, 45.0);
      ls[i] = uniform(rng, std::log(1.0), std::log(1000.0));
      w[i] = uniform01(rng);
    }
    for (const bool gaussian : {true, false}) {
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double dx = x[i] - cx;
        const double dy = y[i] - cy;
        const double dls = ls[i] - cs;
        const double e = 0.5 * ((dx * dx + dy * dy) / h2 + dls * dls / hs2);
        want[i] = gaussian ? w[i] * std::exp(-e) : w[i] * std::max(0.0, 1.0 - e / 4.5);
      }
      // Scalar tier: seed expression bit for bit.
      std::vector<double> scalar_out(n);
      simd::kernels_for(simd::Tier::kScalar)
          .meanshift_profile(gaussian, cx, cy, cs, h2, hs2, x.data(), y.data(), ls.data(),
                             w.data(), scalar_out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(scalar_out[i], want[i])) << "gaussian=" << gaussian << " i=" << i;
      }
      for (const auto t : host_tiers()) {
        std::vector<double> got(n, kNan);
        simd::kernels_for(t).meanshift_profile(gaussian, cx, cy, cs, h2, hs2, x.data(), y.data(),
                                               ls.data(), w.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          if (gaussian) {
            ASSERT_NEAR(got[i], want[i], 1e-13 * (want[i] + 1.0))
                << simd::tier_name(t) << " n=" << n << " i=" << i;
          } else {
            // Epanechnikov is exact arithmetic in every tier.
            ASSERT_TRUE(same_bits(got[i], want[i])) << simd::tier_name(t) << " i=" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Aligned storage

TEST(SimdAligned, AVectorBuffersAre32ByteAligned) {
  for (const std::size_t n : {1, 2, 3, 7, 64, 1000, 4097}) {
    simd::AVector<double> v(n);
    EXPECT_TRUE(simd::is_vector_aligned(v.data())) << "n=" << n;
    simd::AVector<Point2> p(n);
    EXPECT_TRUE(simd::is_vector_aligned(p.data())) << "n=" << n;
  }
  EXPECT_TRUE(simd::is_vector_aligned(nullptr));
  alignas(32) double block[8];
  EXPECT_TRUE(simd::is_vector_aligned(&block[0]));
  EXPECT_FALSE(simd::is_vector_aligned(&block[1]));
}

// ---------------------------------------------------------------------------
// Adoption invariants: the filter and mean-shift under a forced vector tier

TEST(SimdAdoption, FilterWeightsBitIdenticalAcrossThreadCountsInVectorTier) {
  // The padded-tail design makes every kernel chunking-invariant, so the
  // thread-count bit-identity contract must hold within a VECTOR tier too,
  // on both batched paths (free space, and cached-obstacle bilinear).
  if (simd::detected_tier() == simd::Tier::kScalar) {
    GTEST_SKIP() << "host has no vector tier";
  }
  TierGuard guard(simd::detected_tier());

  for (const bool cached_obstacles : {false, true}) {
    Environment env = cached_obstacles
                          ? Environment(make_area(100, 100),
                                        {Obstacle(make_u_shape(38, 35, 62, 60, 2.0), 0.2)})
                          : Environment(make_area(100, 100));
    auto sensors = place_grid(env.bounds(), 5, 5);
    set_background(sensors, 5.0);
    FilterConfig cfg;
    cfg.num_particles = 1200;
    cfg.use_known_obstacles = cached_obstacles;
    cfg.use_transmission_cache = cached_obstacles;

    MeasurementSimulator sim(env, sensors, {{{47, 71}, 60.0}, {{81, 42}, 60.0}});
    Rng noise(21);
    std::vector<Measurement> stream;
    for (int step = 0; step < 4; ++step) {
      for (const auto& m : sim.sample_time_step(noise)) stream.push_back(m);
    }

    FusionParticleFilter serial(env, sensors, cfg, Rng(23));
    for (const auto& m : stream) (void)serial.process(m);

    ThreadPool pool(4, /*max_fanout=*/4);
    FusionParticleFilter parallel(env, sensors, cfg, Rng(23));
    parallel.set_thread_pool(&pool);
    for (const auto& m : stream) (void)parallel.process(m);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(same_bits(serial.weights()[i], parallel.weights()[i]))
          << "cached=" << cached_obstacles << " i=" << i;
      ASSERT_TRUE(same_bits(serial.positions()[i].x, parallel.positions()[i].x));
      ASSERT_TRUE(same_bits(serial.strengths()[i], parallel.strengths()[i]));
    }
  }
}

TEST(SimdAdoption, FilterStaysNormalizedInEveryTier) {
  for (const auto t : host_tiers()) {
    TierGuard guard(t);
    Environment env(make_area(100, 100));
    auto sensors = place_grid(env.bounds(), 5, 5);
    set_background(sensors, 5.0);
    FilterConfig cfg;
    cfg.num_particles = 1000;
    FusionParticleFilter filter(env, sensors, cfg, Rng(31));
    MeasurementSimulator sim(env, sensors, {{{30, 60}, 80.0}});
    Rng noise(32);
    for (int step = 0; step < 6; ++step) {
      for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
    }
    double total = 0.0;
    for (const double w : filter.weights()) {
      ASSERT_TRUE(std::isfinite(w)) << simd::tier_name(t);
      ASSERT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << simd::tier_name(t);
  }
}

TEST(SimdAdoption, MeanShiftModesAgreeAcrossTiers) {
  // The Gaussian profile differs by ~1 ulp between tiers; converged mode
  // positions must agree far beyond the convergence epsilon.
  ThreadPool pool(2, /*max_fanout=*/2);
  const AreaBounds bounds = make_area(100, 100);
  Rng rng(41);
  std::vector<Point2> positions;
  std::vector<double> strengths;
  std::vector<double> weights;
  for (const auto& [center, strength] :
       std::vector<std::pair<Point2, double>>{{{25.0, 25.0}, 40.0}, {{70.0, 65.0}, 400.0}}) {
    for (int i = 0; i < 500; ++i) {
      positions.push_back({center.x + normal(rng, 0.0, 2.0), center.y + normal(rng, 0.0, 2.0)});
      strengths.push_back(strength * std::exp(normal(rng, 0.0, 0.1)));
      weights.push_back(1.0 / 1000.0);
    }
  }

  std::vector<std::vector<SourceEstimate>> per_tier;
  for (const auto t : host_tiers()) {
    TierGuard guard(t);
    MeanShiftEstimator estimator(bounds, MeanShiftConfig{}, pool);
    per_tier.push_back(estimator.estimate(positions, strengths, weights));
  }
  ASSERT_EQ(per_tier.front().size(), 2u);
  for (std::size_t k = 1; k < per_tier.size(); ++k) {
    ASSERT_EQ(per_tier[k].size(), per_tier.front().size());
    for (std::size_t j = 0; j < per_tier[k].size(); ++j) {
      EXPECT_NEAR(per_tier[k][j].pos.x, per_tier.front()[j].pos.x, 1e-6);
      EXPECT_NEAR(per_tier[k][j].pos.y, per_tier.front()[j].pos.y, 1e-6);
      EXPECT_NEAR(per_tier[k][j].strength, per_tier.front()[j].strength,
                  1e-6 * per_tier.front()[j].strength);
    }
  }
}

}  // namespace
}  // namespace radloc
