#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "radloc/concurrency/thread_pool.hpp"
#include "radloc/core/localizer.hpp"
#include "radloc/eval/scenarios.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/filter/resample.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"
#include "radloc/simd/simd.hpp"

namespace radloc {
namespace {

Environment test_env() { return Environment(make_area(100, 100)); }

std::vector<Sensor> test_sensors(const Environment& env, double bg = 5.0) {
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, bg);
  return sensors;
}

FilterConfig small_config() {
  FilterConfig cfg;
  cfg.num_particles = 1500;
  return cfg;
}

TEST(SystematicResample, ProportionalAllocation) {
  Rng rng(1);
  const std::vector<double> weights{0.1, 0.6, 0.3};
  std::vector<int> counts(3, 0);
  constexpr int rounds = 200;
  constexpr std::size_t draws = 100;
  for (int r = 0; r < rounds; ++r) {
    for (const auto i : systematic_resample(rng, weights, draws)) ++counts[i];
  }
  const double total = rounds * draws;
  EXPECT_NEAR(counts[0] / total, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / total, 0.6, 0.01);
  EXPECT_NEAR(counts[2] / total, 0.3, 0.01);
}

TEST(SystematicResample, OutputSortedAndSized) {
  Rng rng(2);
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const auto picks = systematic_resample(rng, weights, 57);
  EXPECT_EQ(picks.size(), 57u);
  EXPECT_TRUE(std::is_sorted(picks.begin(), picks.end()));
}

TEST(SystematicResample, DegenerateWeightConcentrates) {
  Rng rng(3);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (const auto i : systematic_resample(rng, weights, 20)) EXPECT_EQ(i, 1u);
}

TEST(SystematicResample, RejectsZeroTotal) {
  Rng rng(4);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW((void)systematic_resample(rng, weights, 5), std::invalid_argument);
}

TEST(SystematicResample, ZeroCountIsEmpty) {
  Rng rng(5);
  const std::vector<double> weights{1.0};
  EXPECT_TRUE(systematic_resample(rng, weights, 0).empty());
}

TEST(SystematicResample, RejectsNonFiniteAndNegativeWeights) {
  // Before the guard these slipped through silently: a NaN poisons the
  // running total and the comparison `cumulative < pointer` is false for
  // every NaN, so picks collapse onto whatever index the scan stalls at.
  Rng rng(6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad{
      {0.5, nan, 0.5}, {nan}, {1.0, inf}, {1.0, -0.25, 1.0}};
  for (const auto& weights : bad) {
    EXPECT_THROW((void)systematic_resample(rng, weights, 8), std::invalid_argument);
  }
}

TEST(SystematicResample, ZeroPrefixAndSuffixAreNeverPicked) {
  // Leading zeros: the cursor must start at the first positive weight, and
  // trailing zeros must be unreachable even when the final stratified
  // pointer lands at (or, through rounding, just past) the total mass.
  Rng rng(7);
  const std::vector<double> weights{0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0};
  for (int round = 0; round < 50; ++round) {
    for (const auto i : systematic_resample(rng, weights, 64)) {
      ASSERT_GE(i, 3u);
      ASSERT_LE(i, 4u);
    }
  }
}

TEST(SystematicResample, TinyWeightsDoNotEscapeTheSupport) {
  // Denormal-scale totals stress the pointer>total rounding edge: every
  // pick must still carry strictly positive weight.
  Rng rng(8);
  std::vector<double> weights(40, 0.0);
  weights[12] = std::numeric_limits<double>::denorm_min();
  weights[31] = std::numeric_limits<double>::denorm_min();
  for (const auto i : systematic_resample(rng, weights, 100)) {
    ASSERT_TRUE(i == 12u || i == 31u);
  }
}

TEST(FusionFilter, InitializationIsUniform) {
  const Environment env = test_env();
  FusionParticleFilter filter(env, test_sensors(env), small_config(), Rng(7));

  EXPECT_EQ(filter.size(), 1500u);
  const double total = std::accumulate(filter.weights().begin(), filter.weights().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Quadrant occupancy roughly equal for a uniform init.
  int quads[4] = {0, 0, 0, 0};
  for (const auto& p : filter.positions()) {
    EXPECT_TRUE(env.bounds().contains(p));
    quads[(p.x > 50.0 ? 1 : 0) + (p.y > 50.0 ? 2 : 0)]++;
  }
  for (const int q : quads) EXPECT_NEAR(q, 375, 120);

  for (const double s : filter.strengths()) {
    EXPECT_GE(s, filter.config().strength_min);
    EXPECT_LE(s, filter.config().strength_max);
  }
}

TEST(FusionFilter, ConfigValidation) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FilterConfig cfg = small_config();

  cfg.num_particles = 0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.fusion_range = 0.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.random_replacement_frac = 1.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.strength_min = -1.0;
  EXPECT_THROW(FusionParticleFilter(env, sensors, cfg, Rng(1)), std::invalid_argument);
  // Empty sensor list is allowed (mobile-detector mode)...
  FusionParticleFilter sensorless(env, {}, small_config(), Rng(1));
  // ...but then only process_reading() works; sensor ids all throw.
  EXPECT_THROW((void)sensorless.process({0, 5.0}), std::invalid_argument);
  EXPECT_GT(sensorless.process_reading({50, 50}, SensorResponse{kDefaultEfficiency, 5.0}, 7.0),
            0u);
}

TEST(FusionFilter, RejectsBadMeasurements) {
  const Environment env = test_env();
  FusionParticleFilter filter(env, test_sensors(env), small_config(), Rng(7));
  EXPECT_THROW((void)filter.process({999, 5.0}), std::invalid_argument);
  EXPECT_THROW((void)filter.process({0, -1.0}), std::invalid_argument);
}

TEST(FusionFilter, FusionRangeLimitsUpdate) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(8));

  // Snapshot particles far from sensor 0 (at (0,0)).
  const double d = filter.config().fusion_range;
  std::vector<std::pair<Point2, double>> far_before;
  std::vector<std::size_t> far_idx;
  for (std::size_t i = 0; i < filter.size(); ++i) {
    if (distance(filter.positions()[i], sensors[0].pos) > d) {
      far_idx.push_back(i);
      far_before.emplace_back(filter.positions()[i], filter.strengths()[i]);
    }
  }
  ASSERT_FALSE(far_idx.empty());

  const std::size_t touched = filter.process({0, 20.0});
  EXPECT_GT(touched, 0u);
  EXPECT_LT(touched, filter.size());

  // Particles outside the fusion range kept identical state.
  for (std::size_t k = 0; k < far_idx.size(); ++k) {
    const auto i = far_idx[k];
    EXPECT_EQ(filter.positions()[i], far_before[k].first);
    EXPECT_DOUBLE_EQ(filter.strengths()[i], far_before[k].second);
  }
}

TEST(FusionFilter, WeightsStayNormalized) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(9));
  MeasurementSimulator sim(env, sensors, {{{47, 71}, 10.0}});
  Rng noise(10);
  for (int step = 0; step < 3; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) {
      (void)filter.process(m);
      const double total =
          std::accumulate(filter.weights().begin(), filter.weights().end(), 0.0);
      ASSERT_NEAR(total, 1.0, 1e-6);
    }
  }
}

TEST(FusionFilter, ParticlesStayInBounds) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(11));
  MeasurementSimulator sim(env, sensors, {{{5, 5}, 100.0}});
  Rng noise(12);
  for (int step = 0; step < 5; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  for (const auto& p : filter.positions()) EXPECT_TRUE(env.bounds().contains(p));
  for (const double s : filter.strengths()) {
    EXPECT_GE(s, filter.config().strength_min);
    EXPECT_LE(s, filter.config().strength_max);
  }
}

/// Weighted particle mass within `radius` of `center`.
double mass_near(const FusionParticleFilter& f, const Point2& center, double radius) {
  double m = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (distance(f.positions()[i], center) <= radius) m += f.weights()[i];
  }
  return m;
}

TEST(FusionFilter, ConvergesOnSingleSource) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  const Point2 src_pos{47, 71};
  MeasurementSimulator sim(env, sensors, {{src_pos, 50.0}});
  FusionParticleFilter filter(env, sensors, small_config(), Rng(13));

  Rng noise(14);
  const double before = mass_near(filter, src_pos, 15.0);
  for (int step = 0; step < 10; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  const double after = mass_near(filter, src_pos, 15.0);
  EXPECT_GT(after, 0.25);
  EXPECT_GT(after, before * 2.0);
}

TEST(FusionFilter, TracksTwoSourcesSimultaneously) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  const Point2 a{47, 71};
  const Point2 b{81, 42};
  MeasurementSimulator sim(env, sensors, {{a, 50.0}, {b, 50.0}});
  FilterConfig cfg = small_config();
  cfg.num_particles = 2000;
  FusionParticleFilter filter(env, sensors, cfg, Rng(15));

  Rng noise(16);
  for (int step = 0; step < 12; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  // Both sources hold substantial particle mass — the fusion range prevents
  // the all-mass-on-one-source collapse of Fig. 2.
  EXPECT_GT(mass_near(filter, a, 15.0), 0.05);
  EXPECT_GT(mass_near(filter, b, 15.0), 0.05);
}

TEST(FusionFilter, ExtremeReadingKeepsStateFinite) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(17));

  // A wildly implausible (but finite) reading: likelihoods underflow for
  // nearly every hypothesis; the filter must stay normalized and finite.
  (void)filter.process({0, 1e12});
  double total = 0.0;
  for (const double w : filter.weights()) {
    ASSERT_TRUE(std::isfinite(w));
    ASSERT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(FusionFilter, SubnormalPosteriorMassSkipsTheUpdate) {
  // The log-space shift uses the best log-likelihood and ignores the prior
  // weights. When the best-scoring particle carries a subnormal prior weight
  // and every other particle's shifted likelihood underflows, the posterior
  // mass is positive but subnormal and subset_mass / new_mass overflows.
  // That update is degenerate and must be skipped like a zero-mass one; it
  // used to write inf/NaN weights that the next resample rejected.
  const Environment env = test_env();
  FilterConfig cfg;
  cfg.num_particles = 2;
  cfg.fusion_range = 500.0;  // every reading sees both particles
  // With two particles the ESS fraction never drops below 0.5, so this gate
  // skips every resample and the weights keep their multiplicative history.
  cfg.ess_resample_threshold = 0.25;
  FusionParticleFilter filter(env, {}, cfg, Rng(5));

  // Particle 0 is A, particle 1 is B; readings are taken 1 unit from A.
  const Point2 at{filter.positions()[0].x + 1.0, filter.positions()[0].y};
  const auto unit_rate = [&](std::size_t i) {
    return expected_cpm_single_free_space(at, Source{filter.positions()[i], filter.strengths()[i]},
                                          SensorResponse{1.0, 0.0});
  };
  const double gap = unit_rate(0) - unit_rate(1);
  ASSERT_GT(gap, 0.0);

  // Zero-count readings whose rates differ by 10: each one multiplies A's
  // weight by about e^-10 relative to B's, until it is subnormal.
  const SensorResponse fade{10.0 / gap, 1.0};
  for (int r = 0; r < 200 && filter.weights()[0] >= 1e-310; ++r) {
    (void)filter.process_reading(at, fade, 0.0);
  }
  ASSERT_LT(filter.weights()[0], 1e-310);
  ASSERT_GT(filter.weights()[0], 0.0);

  // A reading only A explains: B's shifted likelihood underflows to 0 and
  // the posterior mass is A's subnormal prior weight.
  const std::vector<double> before(filter.weights().begin(), filter.weights().end());
  const SensorResponse loud{2000.0 / gap, 1.0};
  const double cpm = std::round(2000.0 * unit_rate(0) / gap + 1.0);
  EXPECT_EQ(filter.process_reading(at, loud, cpm), 0u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(std::isfinite(filter.weights()[i])) << "particle " << i;
    EXPECT_EQ(filter.weights()[i], before[i]) << "particle " << i;
  }
  // Healthy readings keep working afterwards.
  EXPECT_EQ(filter.process_reading(at, fade, 0.0), 2u);
}

TEST(FusionFilter, NonFiniteReadingRejected) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(17));
  EXPECT_THROW((void)filter.process({0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW((void)filter.process({0, std::nan("")}), std::invalid_argument);
}

TEST(FusionFilter, RandomReplacementRepopulatesEmptyRegions) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FilterConfig cfg = small_config();
  cfg.random_replacement_frac = 0.3;  // aggressive, to test the mechanism
  MeasurementSimulator sim(env, sensors, {{{20, 20}, 100.0}});
  FusionParticleFilter filter(env, sensors, cfg, Rng(18));
  Rng noise(19);
  for (int step = 0; step < 15; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  // Far corner must still hold some particles despite all evidence pointing
  // to (20,20) — fresh particles keep the area observable.
  int far_corner = 0;
  for (const auto& p : filter.positions()) {
    if (p.x > 70.0 && p.y > 70.0) ++far_corner;
  }
  EXPECT_GT(far_corner, 0);
}

TEST(FusionFilter, EffectiveSampleSizeBounded) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(20));
  const double ess0 = filter.effective_sample_size();
  EXPECT_NEAR(ess0, 1500.0, 1.0);  // uniform weights -> ESS = N

  MeasurementSimulator sim(env, sensors, {{{50, 50}, 20.0}});
  Rng noise(21);
  for (int step = 0; step < 5; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  }
  const double ess = filter.effective_sample_size();
  EXPECT_GT(ess, 1.0);
  EXPECT_LE(ess, 1500.0 + 1e-9);
}

TEST(FusionFilter, MovementModelHookRuns) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(22));
  filter.set_movement_model(std::make_unique<RandomWalkMovement>(2.0));
  EXPECT_THROW(filter.set_movement_model(nullptr), std::invalid_argument);

  // With a random-walk model, processing must still keep invariants.
  MeasurementSimulator sim(env, sensors, {{{50, 50}, 20.0}});
  Rng noise(23);
  for (const auto& m : sim.sample_time_step(noise)) (void)filter.process(m);
  const double total = std::accumulate(filter.weights().begin(), filter.weights().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (const auto& p : filter.positions()) EXPECT_TRUE(env.bounds().contains(p));
}

TEST(FusionFilter, ParticlesAccessorMatchesSoA) {
  const Environment env = test_env();
  FusionParticleFilter filter(env, test_sensors(env), small_config(), Rng(24));
  const auto particles = filter.particles();
  ASSERT_EQ(particles.size(), filter.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].pos, filter.positions()[i]);
    EXPECT_DOUBLE_EQ(particles[i].strength, filter.strengths()[i]);
    EXPECT_DOUBLE_EQ(particles[i].weight, filter.weights()[i]);
  }
}

TEST(FusionFilter, DeterministicForSameSeed) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter f1(env, sensors, small_config(), Rng(25));
  FusionParticleFilter f2(env, sensors, small_config(), Rng(25));
  MeasurementSimulator sim(env, sensors, {{{47, 71}, 10.0}});
  Rng noise(26);
  const auto batch = sim.sample_time_step(noise);
  for (const auto& m : batch) {
    (void)f1.process(m);
    (void)f2.process(m);
  }
  for (std::size_t i = 0; i < f1.size(); ++i) {
    ASSERT_EQ(f1.positions()[i], f2.positions()[i]);
    ASSERT_DOUBLE_EQ(f1.weights()[i], f2.weights()[i]);
  }
}

TEST(FusionFilter, IterationCounterAdvances) {
  const Environment env = test_env();
  const auto sensors = test_sensors(env);
  FusionParticleFilter filter(env, sensors, small_config(), Rng(27));
  EXPECT_EQ(filter.iteration(), 0u);
  (void)filter.process({0, 5.0});
  (void)filter.process({1, 5.0});
  EXPECT_EQ(filter.iteration(), 2u);
}

TEST(FusionFilter, KnownObstacleModeChangesLikelihood) {
  // With use_known_obstacles the filter should converge even when a wall
  // blocks most sensors' view — it models the attenuation explicitly.
  Environment env(make_area(100, 100), {Obstacle(make_rect(30, 0, 34, 100), 0.2)});
  auto sensors = test_sensors(env, 5.0);

  FilterConfig cfg = small_config();
  cfg.use_known_obstacles = true;
  FusionParticleFilter aware(env, sensors, cfg, Rng(28));
  cfg.use_known_obstacles = false;
  FusionParticleFilter naive(env, sensors, cfg, Rng(28));

  MeasurementSimulator sim(env, sensors, {{{15, 50}, 100.0}});
  Rng noise(29);
  for (int step = 0; step < 10; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) {
      (void)aware.process(m);
      (void)naive.process(m);
    }
  }
  // Both should find the source; the aware filter at least as well.
  const double aware_mass = mass_near(aware, {15, 50}, 15.0);
  EXPECT_GT(aware_mass, 0.2);
}

TEST(FusionFilter, WeightsBitIdenticalAcrossThreadCounts) {
  // Determinism contract of the parallel weight update: chunks write
  // disjoint slots and every reduction (max, sum) runs serially in index
  // order, so weights and particle states are bit-identical at any thread
  // count. Pools are built with forced fan-out so the queued dispatch path
  // runs even on single-core hosts.
  Environment env(make_area(100, 100), {Obstacle(make_u_shape(38, 35, 62, 60, 2.0), 0.2)});
  const auto sensors = test_sensors(env);
  FilterConfig cfg = small_config();
  cfg.use_known_obstacles = true;

  MeasurementSimulator sim(env, sensors, {{{47, 71}, 40.0}, {{81, 42}, 40.0}});
  Rng noise(31);
  std::vector<Measurement> stream;
  for (int step = 0; step < 5; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) stream.push_back(m);
  }

  FusionParticleFilter serial(env, sensors, cfg, Rng(33));
  for (const auto& m : stream) (void)serial.process(m);

  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads, /*max_fanout=*/threads);
    FusionParticleFilter parallel(env, sensors, cfg, Rng(33));
    parallel.set_thread_pool(&pool);
    for (const auto& m : stream) (void)parallel.process(m);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial.weights()[i], parallel.weights()[i]) << "threads=" << threads << " i=" << i;
      ASSERT_EQ(serial.positions()[i].x, parallel.positions()[i].x) << "threads=" << threads;
      ASSERT_EQ(serial.positions()[i].y, parallel.positions()[i].y) << "threads=" << threads;
      ASSERT_EQ(serial.strengths()[i], parallel.strengths()[i]) << "threads=" << threads;
    }
  }
}

TEST(FusionFilter, LocalizerEstimatesBitIdenticalAcrossThreadCounts) {
  // End-to-end check over the public entry point: filter weighting and the
  // mean-shift basin-support accumulation both fan out over the pool, and
  // both must leave estimates independent of cfg.num_threads.
  Environment env(make_area(100, 100), {Obstacle(make_u_shape(38, 35, 62, 60, 2.0), 0.2)});
  const auto sensors = test_sensors(env);

  std::vector<std::vector<SourceEstimate>> per_thread_count;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    LocalizerConfig cfg;
    cfg.filter.num_particles = 1500;
    cfg.filter.use_known_obstacles = true;
    cfg.num_threads = threads;
    MultiSourceLocalizer loc(env, sensors, cfg, /*seed=*/45);
    MeasurementSimulator sim(env, sensors, {{{47, 71}, 40.0}});
    Rng noise(46);
    for (int step = 0; step < 5; ++step) loc.process_all(sim.sample_time_step(noise));
    per_thread_count.push_back(loc.estimate());
  }

  for (std::size_t t = 1; t < per_thread_count.size(); ++t) {
    ASSERT_EQ(per_thread_count[0].size(), per_thread_count[t].size());
    for (std::size_t k = 0; k < per_thread_count[0].size(); ++k) {
      EXPECT_EQ(per_thread_count[0][k].pos.x, per_thread_count[t][k].pos.x);
      EXPECT_EQ(per_thread_count[0][k].pos.y, per_thread_count[t][k].pos.y);
      EXPECT_EQ(per_thread_count[0][k].strength, per_thread_count[t][k].strength);
      EXPECT_EQ(per_thread_count[0][k].support, per_thread_count[t][k].support);
    }
  }
}


// ---------------------------------------------------------------------------
// Particle generation and fused multi-reading updates (DESIGN.md §5.10)

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t state_fingerprint(const FusionParticleFilter& f) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto pos = f.positions();
  const auto str = f.strengths();
  const auto w = f.weights();
  h = fnv1a(h, pos.data(), pos.size() * sizeof(Point2));
  h = fnv1a(h, str.data(), str.size_bytes());
  h = fnv1a(h, w.data(), w.size_bytes());
  return h;
}

/// A small deployment whose readings never degenerate: 4x4 grid, one source.
struct SmallWorld {
  Environment env{make_area(100, 100)};
  std::vector<Sensor> sensors;
  SmallWorld() {
    sensors = place_grid(env.bounds(), 4, 4);
    set_background(sensors, 5.0);
  }
};

FilterConfig small_cfg(double ess_threshold) {
  FilterConfig cfg;
  cfg.num_particles = 400;
  cfg.fusion_range = 60.0;
  cfg.ess_resample_threshold = ess_threshold;
  return cfg;
}

/// ESS threshold low enough that the gate skips every non-degenerate
/// resample.
constexpr double kAlwaysSkip = 1e-6;

TEST(ParticleGeneration, SkippedResampleKeepsTheGeneration) {
  const SmallWorld w;
  FusionParticleFilter filter(w.env, w.sensors, small_cfg(kAlwaysSkip), Rng(1));
  const Measurement m{5, 30.0};
  for (int r = 0; r < 3; ++r) EXPECT_GT(filter.process(m), 0u);
  EXPECT_EQ(filter.resamples_skipped(), 3u);
  EXPECT_EQ(filter.resamples_performed(), 0u);
  EXPECT_EQ(filter.particle_generation(), 0u) << "skipped resamples must keep the generation";
}

TEST(ParticleGeneration, PerformedResampleBumpsTheGeneration) {
  const SmallWorld w;
  // Default ESS threshold 1.0: every non-degenerate update resamples.
  FusionParticleFilter filter(w.env, w.sensors, small_cfg(1.0), Rng(1));
  const Measurement m{5, 30.0};
  EXPECT_GT(filter.process(m), 0u);
  const std::uint64_t gen = filter.particle_generation();
  EXPECT_GT(gen, 0u);
  EXPECT_GT(filter.process(m), 0u);
  EXPECT_EQ(filter.resamples_performed(), 2u);
  EXPECT_EQ(filter.particle_generation(), gen + 1) << "resample must bump the generation";
}

TEST(ParticleGeneration, ResizeBumpsTheGeneration) {
  const SmallWorld w;
  FusionParticleFilter filter(w.env, w.sensors, small_cfg(kAlwaysSkip), Rng(1));
  const Measurement m{5, 30.0};
  (void)filter.process(m);
  const std::uint64_t gen = filter.particle_generation();
  EXPECT_EQ(filter.resize_budget(400), 400u);
  EXPECT_EQ(filter.particle_generation(), gen) << "a same-count resize is a no-op";
  EXPECT_EQ(filter.resize_budget(300), 300u);
  EXPECT_EQ(filter.particle_generation(), gen + 1);
  EXPECT_GT(filter.process(m), 0u) << "the resized population must index and score";
}

TEST(ParticleGeneration, NonStaticEvolveBumpsTheGeneration) {
  const SmallWorld w;
  FusionParticleFilter filter(w.env, w.sensors, small_cfg(kAlwaysSkip), Rng(1));
  ASSERT_TRUE(filter.movement_is_static());
  filter.set_movement_model(std::make_unique<RandomWalkMovement>(0.5));
  EXPECT_FALSE(filter.movement_is_static());

  const Measurement m{5, 30.0};
  ASSERT_GT(filter.process(m), 0u);
  EXPECT_EQ(filter.resamples_performed(), 0u);
  EXPECT_EQ(filter.particle_generation(), 1u) << "evolution must bump the generation";

  // Restoring a static model: predict is the identity again.
  filter.set_movement_model(std::make_unique<StaticMovement>());
  EXPECT_TRUE(filter.movement_is_static());
  (void)filter.process(m);
  EXPECT_EQ(filter.particle_generation(), 1u);
}

TEST(FusionFilter, EmptyDiskIsANoOpAndStillAdvancesTheClock) {
  const SmallWorld w;
  FusionParticleFilter filter(w.env, w.sensors, small_cfg(kAlwaysSkip), Rng(1));
  // A mobile reading far outside the bounds: the fusion disk is empty, the
  // update is a no-op — but iteration() must still count it (the stream
  // clock tracks readings fed, not subset geometry; pinned intentionally so
  // the adaptive-budget cadence and service accounting stay aligned).
  const std::uint64_t before = state_fingerprint(filter);
  const SensorResponse resp{kDefaultEfficiency, 5.0};
  EXPECT_EQ(filter.iteration(), 0u);
  EXPECT_EQ(filter.process_reading({1e6, 1e6}, resp, 5.0), 0u);
  EXPECT_EQ(filter.iteration(), 1u);
  EXPECT_EQ(filter.process_reading({1e6, 1e6}, resp, 5.0), 0u);
  EXPECT_EQ(filter.iteration(), 2u);
  EXPECT_EQ(state_fingerprint(filter), before);
  EXPECT_EQ(filter.particles_scored(), 0u);
}

TEST(FusedUpdates, SizeOneGroupBitIdenticalToProcess) {
  const SmallWorld w;
  const Measurement m{5, 30.0};
  FusionParticleFilter a(w.env, w.sensors, small_cfg(1.0), Rng(3));
  FusionParticleFilter b(w.env, w.sensors, small_cfg(1.0), Rng(3));
  const std::size_t na = a.process(m);
  const std::size_t nb = b.process_fused(std::span{&m, 1});
  EXPECT_EQ(na, nb);
  EXPECT_EQ(b.fused_groups(), 0u) << "size-1 groups take the exact single-reading path";
  EXPECT_EQ(b.iteration(), a.iteration());
  EXPECT_EQ(state_fingerprint(b), state_fingerprint(a));
}

TEST(FusedUpdates, GroupMatchesSerialWithinToleranceAtEveryTier) {
  // With the gate skipping every resample the serial path never mutates
  // positions mid-group, so fused-vs-serial differ only by FP reordering of
  // the summed log-likelihoods: positions bitwise equal, weights within a
  // tight relative tolerance — at every SIMD tier the host supports.
  const SmallWorld w;
  const std::vector<Measurement> stream{{5, 28.0}, {5, 31.0}, {5, 30.0}, {5, 33.0},
                                        {9, 12.0}, {9, 14.0}, {9, 11.0}, {9, 13.0}};
  for (const simd::Tier tier : simd::sweep_tiers()) {
    simd::force_tier(tier);
    FusionParticleFilter serial(w.env, w.sensors, small_cfg(kAlwaysSkip), Rng(3));
    FusionParticleFilter fused(w.env, w.sensors, small_cfg(kAlwaysSkip), Rng(3));
    for (const Measurement& m : stream) (void)serial.process(m);
    (void)fused.process_fused(std::span{stream}.subspan(0, 4));
    (void)fused.process_fused(std::span{stream}.subspan(4, 4));
    simd::reset_tier();

    EXPECT_EQ(fused.iteration(), serial.iteration()) << "fused must count every reading";
    EXPECT_EQ(fused.fused_groups(), 2u);
    EXPECT_EQ(fused.fused_readings(), 8u);
    ASSERT_EQ(fused.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(fused.positions()[i], serial.positions()[i])
          << "tier " << static_cast<int>(tier) << " i=" << i;
      const double ws = serial.weights()[i];
      const double wf = fused.weights()[i];
      ASSERT_LE(std::abs(wf - ws), 1e-9 * std::abs(ws) + 1e-15)
          << "tier " << static_cast<int>(tier) << " i=" << i;
    }
  }
}

TEST(FusedUpdates, RejectsMixedSensorsNonStaticMovementAndMalformedReadings) {
  const SmallWorld w;
  FusionParticleFilter filter(w.env, w.sensors, small_cfg(1.0), Rng(3));

  EXPECT_EQ(filter.process_fused({}), 0u);
  EXPECT_EQ(filter.iteration(), 0u) << "an empty group must not advance the clock";

  const std::vector<Measurement> mixed{{5, 30.0}, {6, 30.0}};
  EXPECT_THROW((void)filter.process_fused(mixed), std::invalid_argument);
  const std::vector<Measurement> malformed{{5, 30.0}, {5, -1.0}};
  EXPECT_THROW((void)filter.process_fused(malformed), std::invalid_argument);
  EXPECT_EQ(filter.iteration(), 0u) << "rejected groups must not advance the clock";

  filter.set_movement_model(std::make_unique<RandomWalkMovement>(0.5));
  const std::vector<Measurement> group{{5, 30.0}, {5, 31.0}};
  EXPECT_THROW((void)filter.process_fused(group), std::invalid_argument)
      << "fused updates require a static movement model";
}

TEST(FusedUpdates, LocalizerBatchGroupsConsecutiveSameSensorRuns) {
  const Scenario sc = make_scenario_a(10.0);
  LocalizerConfig cfg;
  cfg.filter.num_particles = 600;
  cfg.filter.fusion_range = sc.recommended_fusion_range;
  cfg.filter.ess_resample_threshold = 0.5;
  cfg.filter.fused_batch_updates = true;
  MultiSourceLocalizer loc(sc.env, sc.sensors, cfg, 42);

  MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
  Rng noise(7);
  std::vector<Measurement> batch;
  for (const Measurement& m : sim.sample_time_step(noise)) {
    for (int r = 0; r < 4; ++r) batch.push_back(m);
  }
  loc.process_all(batch);
  const FusionParticleFilter& f = loc.filter();
  EXPECT_EQ(f.iteration(), batch.size());
  EXPECT_GT(f.fused_groups(), 0u);
  EXPECT_EQ(f.fused_readings(), 4 * f.fused_groups()) << "every run in this batch has length 4";
}

TEST(FusedUpdates, TryProcessAllBreaksRunsOnMalformedWithoutDoubleTally) {
  const SmallWorld w;
  LocalizerConfig cfg;
  cfg.filter.num_particles = 400;
  cfg.filter.fusion_range = 60.0;
  cfg.filter.ess_resample_threshold = 0.5;
  cfg.filter.fused_batch_updates = true;
  MultiSourceLocalizer loc(w.env, w.sensors, cfg, 42);

  const double nan = std::nan("");
  const std::vector<Measurement> batch{{5, 30.0}, {5, nan}, {5, 31.0}, {5, 29.0}, {5, 30.0}};
  std::vector<std::size_t> order;
  std::vector<ReadingFault> faults;
  const BatchIngestResult res = loc.try_process_all(batch, [&](std::size_t i, ReadingFault f) {
    order.push_back(i);
    faults.push_back(f);
  });
  EXPECT_EQ(res.processed, 4u);
  EXPECT_EQ(res.rejected, 1u);
  EXPECT_EQ(res.first_fault, ReadingFault::kNonFiniteCpm);
  ASSERT_EQ(order.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(order[i], i) << "callbacks must fire in batch order";
    EXPECT_EQ(faults[i], i == 1 ? ReadingFault::kNonFiniteCpm : ReadingFault::kNone);
  }
  const FusionParticleFilter& f = loc.filter();
  EXPECT_EQ(f.iteration(), 4u);
  EXPECT_EQ(f.fused_groups(), 1u) << "the NaN breaks the run: [m0], reject, [m2 m3 m4]";
  EXPECT_EQ(f.fused_readings(), 3u);
  // Each well-formed reading tallies exactly once (probe does not tally).
  EXPECT_EQ(f.validator().accepted(), 4u);
  EXPECT_EQ(f.validator().rejected(), 1u);
}

}  // namespace
}  // namespace radloc
