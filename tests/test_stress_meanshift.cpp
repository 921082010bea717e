// Deterministic stress harness for the mean-shift estimator.
//
// Degenerate weight vectors (all-zero, denormal, all-mass-on-one-particle),
// empty/singleton/duplicate inputs, randomized clouds, and thread-count
// determinism. The standing invariants: estimates are finite and inside the
// bounds, supports lie in [0, 1], seed selection never duplicates an index,
// and results are bit-identical at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/rng/distributions.hpp"

namespace radloc {
namespace {

struct Cloud {
  std::vector<Point2> positions;
  std::vector<double> strengths;
  std::vector<double> weights;
};

// Two tight clusters plus scattered noise, uniform weights by default.
Cloud make_cloud(std::uint64_t seed, std::size_t n, const AreaBounds& bounds) {
  Rng rng(seed);
  Cloud c;
  for (std::size_t i = 0; i < n; ++i) {
    Point2 p;
    if (i % 3 == 0) {
      p = {25.0 + normal(rng, 0.0, 2.0), 70.0 + normal(rng, 0.0, 2.0)};
    } else if (i % 3 == 1) {
      p = {70.0 + normal(rng, 0.0, 2.0), 30.0 + normal(rng, 0.0, 2.0)};
    } else {
      p = uniform_point(rng, bounds);
    }
    c.positions.push_back(bounds.clamp(p));
    c.strengths.push_back(std::exp(uniform(rng, std::log(4.0), std::log(1000.0))));
    c.weights.push_back(1.0 / static_cast<double>(n));
  }
  return c;
}

void expect_estimate_invariants(const std::vector<SourceEstimate>& estimates,
                                const AreaBounds& bounds, const char* context) {
  SCOPED_TRACE(context);
  double total_support = 0.0;
  for (const SourceEstimate& e : estimates) {
    ASSERT_TRUE(std::isfinite(e.pos.x) && std::isfinite(e.pos.y));
    ASSERT_TRUE(bounds.contains(e.pos));
    ASSERT_TRUE(std::isfinite(e.strength));
    ASSERT_GT(e.strength, 0.0);
    ASSERT_GE(e.support, 0.0);
    ASSERT_LE(e.support, 1.0 + 1e-6);
    total_support += e.support;
  }
  ASSERT_LE(total_support, 1.0 + 1e-6);
}

TEST(StressMeanShift, DegenerateWeightVectors) {
  const AreaBounds bounds = make_area(100.0, 100.0);
  ThreadPool pool(1);
  MeanShiftEstimator estimator(bounds, MeanShiftConfig{}, pool);
  Cloud c = make_cloud(31, 300, bounds);

  // All-zero weights: no mass, no estimates.
  std::vector<double> zeros(c.positions.size(), 0.0);
  EXPECT_TRUE(estimator.estimate(c.positions, c.strengths, zeros).empty());

  // All mass on one particle: exactly that point comes back, full support.
  std::vector<double> one_hot(c.positions.size(), 0.0);
  one_hot[7] = 1.0;
  const auto hot = estimator.estimate(c.positions, c.strengths, one_hot);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_NEAR(hot[0].pos.x, c.positions[7].x, 1e-9);
  EXPECT_NEAR(hot[0].pos.y, c.positions[7].y, 1e-9);
  EXPECT_NEAR(hot[0].support, 1.0, 1e-9);
  expect_estimate_invariants(hot, bounds, "one-hot");

  // Uniform denormal weights: kernel sums may underflow to zero, but the
  // estimator must stay finite and within contract either way.
  std::vector<double> denormal(c.positions.size(), std::numeric_limits<double>::denorm_min());
  expect_estimate_invariants(estimator.estimate(c.positions, c.strengths, denormal), bounds,
                             "denormal");

  // Mass confined to one cluster, zeros elsewhere.
  std::vector<double> cluster_only(c.positions.size(), 0.0);
  for (std::size_t i = 0; i < cluster_only.size(); i += 3) cluster_only[i] = 1.0;
  const auto cluster = estimator.estimate(c.positions, c.strengths, cluster_only);
  expect_estimate_invariants(cluster, bounds, "cluster-only");
  ASSERT_FALSE(cluster.empty());
  EXPECT_NEAR(cluster[0].pos.x, 25.0, 5.0);
  EXPECT_NEAR(cluster[0].pos.y, 70.0, 5.0);
}

TEST(StressMeanShift, EmptySingletonAndDuplicateInputs) {
  const AreaBounds bounds = make_area(100.0, 100.0);
  ThreadPool pool(1);
  MeanShiftEstimator estimator(bounds, MeanShiftConfig{}, pool);

  EXPECT_TRUE(estimator.estimate({}, {}, {}).empty());

  const std::vector<Point2> single_pos{{42.0, 13.0}};
  const std::vector<double> single_str{50.0};
  const std::vector<double> single_w{1.0};
  const auto single = estimator.estimate(single_pos, single_str, single_w);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_NEAR(single[0].pos.x, 42.0, 1e-9);
  EXPECT_NEAR(single[0].strength, 50.0, 1e-6);

  // Every particle at the same point: one mode, all the mass.
  const std::size_t n = 200;
  const std::vector<Point2> dup_pos(n, Point2{60.0, 60.0});
  const std::vector<double> dup_str(n, 80.0);
  const std::vector<double> dup_w(n, 1.0 / static_cast<double>(n));
  const auto dup = estimator.estimate(dup_pos, dup_str, dup_w);
  ASSERT_EQ(dup.size(), 1u);
  EXPECT_NEAR(dup[0].pos.x, 60.0, 1e-9);
  EXPECT_NEAR(dup[0].support, 1.0, 1e-9);
}

TEST(StressMeanShift, SeedSelectionNeverDuplicatesAnIndex) {
  const AreaBounds bounds = make_area(100.0, 100.0);
  ThreadPool pool(1);

  // seed_separation == 0 disables the spatial thinning (0 < 0 is false), so
  // only the index check stands between a mass spike and max_seeds duplicate
  // ascents of the same particle — the regression this pins down.
  MeanShiftConfig cfg;
  cfg.seed_separation = 0.0;
  MeanShiftEstimator estimator(bounds, cfg, pool);

  Cloud c = make_cloud(77, 250, bounds);
  std::vector<double> spiked(c.positions.size(), 1e-12);
  spiked[13] = 1.0;  // virtually all mass on one particle

  const auto seeds = estimator.select_seeds(c.positions, spiked);
  ASSERT_FALSE(seeds.empty());
  std::set<std::uint32_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size()) << "select_seeds returned a duplicate index";
  for (const auto s : seeds) ASSERT_LT(s, c.positions.size());

  // Also holds for ordinary weights at several seeds.
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    Cloud cloud = make_cloud(seed, 300, bounds);
    const auto sel = estimator.select_seeds(cloud.positions, cloud.weights);
    std::set<std::uint32_t> uniq(sel.begin(), sel.end());
    EXPECT_EQ(uniq.size(), sel.size());
    EXPECT_LE(sel.size(), cfg.max_seeds);
  }
}

TEST(StressMeanShift, BitIdenticalAcrossThreadCounts) {
  const AreaBounds bounds = make_area(100.0, 100.0);
  Cloud c = make_cloud(8, 600, bounds);
  // Uneven weights so the basin-support reduction actually has structure.
  Rng rng(15);
  for (auto& w : c.weights) w = uniform01(rng);

  ThreadPool pool1(1);
  ThreadPool pool2(2, 2);
  ThreadPool pool4(4, 4);
  ThreadPool* pools[] = {&pool1, &pool2, &pool4};

  std::vector<SourceEstimate> reference;
  MeanShiftWork reference_work;
  for (ThreadPool* pool : pools) {
    SCOPED_TRACE(::testing::Message() << pool->num_threads() << " threads");
    MeanShiftEstimator estimator(bounds, MeanShiftConfig{}, *pool);
    const auto estimates = estimator.estimate(c.positions, c.strengths, c.weights);
    expect_estimate_invariants(estimates, bounds, "thread sweep");
    // Not vacuous: the seeds span several waves and later waves capture.
    const MeanShiftWork work = estimator.last_work();
    EXPECT_GT(work.ascents, MeanShiftEstimator::kWaveSize);
    EXPECT_GT(work.captured, 0u);
    if (reference.empty()) {
      reference = estimates;
      reference_work = work;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(work.ascents, reference_work.ascents);
      EXPECT_EQ(work.captured, reference_work.captured);
      EXPECT_EQ(work.shift_steps, reference_work.shift_steps);
      ASSERT_EQ(estimates.size(), reference.size());
      for (std::size_t i = 0; i < estimates.size(); ++i) {
        ASSERT_EQ(estimates[i].pos, reference[i].pos);
        ASSERT_EQ(estimates[i].strength, reference[i].strength);
        ASSERT_EQ(estimates[i].support, reference[i].support);
      }
    }
  }
}

TEST(StressMeanShift, RandomizedEpisodes) {
  const AreaBounds bounds = make_area(100.0, 100.0);
  ThreadPool pool(3, 3);
  MeanShiftEstimator estimator(bounds, MeanShiftConfig{}, pool);

  for (const std::uint64_t seed : {2u, 4u, 11u, 23u, 42u}) {
    SCOPED_TRACE(::testing::Message() << "episode seed " << seed);
    Rng rng(seed);
    const std::size_t n = 50 + static_cast<std::size_t>(uniform_index(rng, 400));
    Cloud c = make_cloud(seed * 31 + 7, n, bounds);
    // Corrupt the weight vector the ways a filter under stress would:
    // zero spans, denormal dust, a dominating spike.
    for (std::size_t i = 0; i < n; ++i) {
      const auto roll = uniform_index(rng, 10);
      if (roll < 3) {
        c.weights[i] = 0.0;
      } else if (roll < 5) {
        c.weights[i] = std::numeric_limits<double>::denorm_min();
      }
    }
    if (seed % 2 == 0) c.weights[uniform_index(rng, n)] = 10.0;
    expect_estimate_invariants(estimator.estimate(c.positions, c.strengths, c.weights), bounds,
                               "randomized episode");
  }
}

}  // namespace
}  // namespace radloc
