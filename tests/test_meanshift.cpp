#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
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

/// Particles clustered around `centers` with Gaussian spread, log-normal
/// strength scatter around each center's strength, equal weights.
Cloud make_cloud(Rng& rng, const std::vector<SourceEstimate>& centers, std::size_t per_center,
                 double pos_sigma = 3.0, double strength_sigma = 0.15) {
  Cloud c;
  const double w = 1.0 / static_cast<double>(centers.size() * per_center);
  for (const auto& center : centers) {
    for (std::size_t i = 0; i < per_center; ++i) {
      c.positions.push_back({center.pos.x + normal(rng, 0.0, pos_sigma),
                             center.pos.y + normal(rng, 0.0, pos_sigma)});
      c.strengths.push_back(center.strength * std::exp(normal(rng, 0.0, strength_sigma)));
      c.weights.push_back(w);
    }
  }
  return c;
}

MeanShiftConfig test_config() {
  MeanShiftConfig cfg;
  cfg.min_support = 0.05;
  return cfg;
}

TEST(MeanShift, EmptyInputGivesNoEstimates) {
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  EXPECT_TRUE(est.estimate({}, {}, {}).empty());
}

TEST(MeanShift, AllZeroWeightsGiveNoEstimates) {
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const std::vector<Point2> pos{{10, 10}, {20, 20}};
  const std::vector<double> str{5.0, 5.0};
  const std::vector<double> w{0.0, 0.0};
  EXPECT_TRUE(est.estimate(pos, str, w).empty());
}

TEST(MeanShift, MismatchedSpansThrow) {
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const std::vector<Point2> pos{{10, 10}};
  const std::vector<double> one{5.0};
  const std::vector<double> two{0.5, 0.5};
  EXPECT_THROW((void)est.estimate(pos, one, two), std::invalid_argument);
}

TEST(MeanShift, ConfigValidation) {
  ThreadPool pool(1);
  MeanShiftConfig cfg = test_config();
  cfg.bandwidth_xy = 0.0;
  EXPECT_THROW(MeanShiftEstimator(make_area(10, 10), cfg, pool), std::invalid_argument);
  cfg = test_config();
  cfg.min_support = 1.5;
  EXPECT_THROW(MeanShiftEstimator(make_area(10, 10), cfg, pool), std::invalid_argument);
}

TEST(MeanShift, SingleClusterRecovered) {
  Rng rng(1);
  ThreadPool pool(1);
  const auto cloud = make_cloud(rng, {{{47, 71}, 10.0, 0.0}}, 800);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_LT(distance(modes[0].pos, {47, 71}), 2.0);
  EXPECT_NEAR(modes[0].strength, 10.0, 1.5);
  EXPECT_GT(modes[0].support, 0.9);
}

/// Sweep over cluster counts: the estimator must learn K itself.
class ClusterCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClusterCountSweep, LearnsK) {
  const int k = GetParam();
  Rng rng(100 + k);
  const std::vector<Point2> grid{{20, 20}, {80, 20}, {20, 80}, {80, 80}, {50, 50}};
  std::vector<SourceEstimate> centers;
  for (int j = 0; j < k; ++j) centers.push_back({grid[j], 20.0 + 10.0 * j, 0.0});

  const auto cloud = make_cloud(rng, centers, 500);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);

  ASSERT_EQ(modes.size(), static_cast<std::size_t>(k));
  // Every center matched by some mode.
  for (const auto& c : centers) {
    const bool found = std::any_of(modes.begin(), modes.end(), [&](const SourceEstimate& m) {
      return distance(m.pos, c.pos) < 3.0;
    });
    EXPECT_TRUE(found) << "missing center " << c.pos.x << "," << c.pos.y;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ClusterCountSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(MeanShift, WeightsDominateOverCounts) {
  // Cluster A: many particles with tiny weights. Cluster B: few with heavy
  // weights. Support must follow weight, not count.
  Rng rng(2);
  Cloud cloud;
  for (int i = 0; i < 900; ++i) {
    cloud.positions.push_back({20 + normal(rng, 0, 2.0), 20 + normal(rng, 0, 2.0)});
    cloud.strengths.push_back(10.0);
    cloud.weights.push_back(0.1 / 900.0);
  }
  for (int i = 0; i < 100; ++i) {
    cloud.positions.push_back({80 + normal(rng, 0, 2.0), 80 + normal(rng, 0, 2.0)});
    cloud.strengths.push_back(10.0);
    cloud.weights.push_back(0.9 / 100.0);
  }
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 2u);
  // Sorted by support: the heavy cluster first.
  EXPECT_LT(distance(modes[0].pos, {80, 80}), 3.0);
  EXPECT_GT(modes[0].support, modes[1].support);
}

TEST(MeanShift, MinSupportFiltersNoiseClusters) {
  Rng rng(3);
  // One real cluster + uniform background noise.
  auto cloud = make_cloud(rng, {{{50, 50}, 20.0, 0.0}}, 700);
  const AreaBounds area = make_area(100, 100);
  for (int i = 0; i < 300; ++i) {
    cloud.positions.push_back(uniform_point(rng, area));
    cloud.strengths.push_back(10.0);
    cloud.weights.push_back(1e-6);  // negligible weight
  }
  ThreadPool pool(1);
  MeanShiftConfig cfg = test_config();
  cfg.min_support = 0.10;
  MeanShiftEstimator est(area, cfg, pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_LT(distance(modes[0].pos, {50, 50}), 2.5);
}

TEST(MeanShift, CloseClustersMergeIntoOne) {
  Rng rng(4);
  // Two centers 4 apart with bandwidth 5: a single blended mode.
  const auto cloud =
      make_cloud(rng, {{{48, 50}, 10.0, 0.0}, {{52, 50}, 10.0, 0.0}}, 500);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_LT(distance(modes[0].pos, {50, 50}), 2.5);
}

TEST(MeanShift, CloseDistinctClustersSurviveCapture) {
  // Two tight clusters 7 apart (beyond merge_radius 6) with well-separated
  // strengths: distinct modes of the KDE in (x, y, log strength). Dense
  // seeding spreads the ascents over several waves, so later waves run
  // with both hills already climbed; capture must not fold one cluster's
  // ascents into the other's mode.
  Rng rng(41);
  const auto cloud = make_cloud(rng, {{{46.5, 50}, 10.0, 0.0}, {{53.5, 50}, 200.0, 0.0}}, 600,
                                /*pos_sigma=*/0.6, /*strength_sigma=*/0.1);
  MeanShiftConfig cfg = test_config();
  cfg.seed_separation = 0.25;
  ThreadPool pool(2);
  MeanShiftEstimator est(make_area(100, 100), cfg, pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  const MeanShiftWork work = est.last_work();
  EXPECT_GT(work.ascents, 2 * MeanShiftEstimator::kWaveSize);  // at least three waves
  EXPECT_GT(work.captured, 0u);
  ASSERT_EQ(modes.size(), 2u);
  const auto [left, right] = modes[0].pos.x < modes[1].pos.x
                                 ? std::pair{modes[0], modes[1]}
                                 : std::pair{modes[1], modes[0]};
  EXPECT_LT(distance(left.pos, {46.5, 50}), 1.0);
  EXPECT_LT(distance(right.pos, {53.5, 50}), 1.0);
  EXPECT_NEAR(left.strength, 10.0, 2.0);
  EXPECT_NEAR(right.strength, 200.0, 40.0);
}

TEST(MeanShift, ParallelMatchesSerial) {
  Rng rng(5);
  const auto cloud = make_cloud(
      rng, {{{20, 30}, 15.0, 0.0}, {{70, 60}, 40.0, 0.0}, {{40, 85}, 90.0, 0.0}}, 400);

  ThreadPool serial(1);
  ThreadPool parallel(4);
  MeanShiftEstimator est_s(make_area(100, 100), test_config(), serial);
  MeanShiftEstimator est_p(make_area(100, 100), test_config(), parallel);
  const auto m_s = est_s.estimate(cloud.positions, cloud.strengths, cloud.weights);
  const auto m_p = est_p.estimate(cloud.positions, cloud.strengths, cloud.weights);

  ASSERT_EQ(m_s.size(), m_p.size());
  for (std::size_t i = 0; i < m_s.size(); ++i) {
    EXPECT_NEAR(m_s[i].pos.x, m_p[i].pos.x, 1e-9);
    EXPECT_NEAR(m_s[i].pos.y, m_p[i].pos.y, 1e-9);
    EXPECT_NEAR(m_s[i].strength, m_p[i].strength, 1e-9);
    EXPECT_NEAR(m_s[i].support, m_p[i].support, 1e-9);
  }
}

TEST(MeanShift, StrengthRecoveredInLogSpace) {
  // Widely different strengths must both be recovered — the log-strength
  // feature space keeps the kernel scale-free.
  Rng rng(6);
  const auto cloud = make_cloud(rng, {{{25, 25}, 4.0, 0.0}, {{75, 75}, 900.0, 0.0}}, 600);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  ASSERT_EQ(modes.size(), 2u);
  std::vector<double> strengths{modes[0].strength, modes[1].strength};
  std::sort(strengths.begin(), strengths.end());
  EXPECT_NEAR(strengths[0], 4.0, 1.0);
  EXPECT_NEAR(strengths[1], 900.0, 180.0);
}

TEST(MeanShift, SupportSumsToAtMostOne) {
  Rng rng(7);
  const auto cloud = make_cloud(rng, {{{30, 30}, 10.0, 0.0}, {{70, 70}, 10.0, 0.0}}, 400);
  ThreadPool pool(1);
  MeanShiftEstimator est(make_area(100, 100), test_config(), pool);
  const auto modes = est.estimate(cloud.positions, cloud.strengths, cloud.weights);
  double total = 0.0;
  for (const auto& m : modes) total += m.support;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.8);  // most mass is in the two basins
}

}  // namespace
}  // namespace radloc
