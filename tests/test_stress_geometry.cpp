// Deterministic stress harness for the geometry layer: TransmissionCache
// pointer stability under capacity pressure and revision churn, pathological
// obstacle shapes, and GridIndex radius queries checked against brute force
// through rebuild churn and boundary cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "radloc/geom/grid_index.hpp"
#include "radloc/geom/polygon.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/radiation/obstacle.hpp"
#include "radloc/radiation/transmission_cache.hpp"
#include "radloc/rng/distributions.hpp"

namespace radloc {
namespace {

Environment make_walled_env() {
  return Environment(make_area(100.0, 100.0),
                     {Obstacle(make_rect(40.0, 0.0, 60.0, 80.0), 0.0693),
                      Obstacle(make_rect(10.0, 90.0, 90.0, 95.0), 0.046)});
}

// THE pointer-stability regression: a Field* handed out by prepare() must
// survive later prepare() calls for other origins. With the old vector
// storage the 2nd..Nth prepare could reallocate and leave the first pointer
// dangling — ASan flags the reads below as heap-use-after-free pre-fix.
TEST(StressGeometry, CacheFieldPointerSurvivesMaxFieldsPrepares) {
  const Environment env = make_walled_env();
  constexpr std::size_t kMaxFields = 8;
  TransmissionCache cache(env, 2.0, kMaxFields);

  const Point2 held_origin{10.0, 10.0};
  const TransmissionCache::Field* held = cache.prepare(held_origin);
  ASSERT_NE(held, nullptr);

  const std::vector<Point2> probes{{5.0, 5.0}, {50.0, 40.0}, {95.0, 95.0}, {70.0, 10.0}};
  std::vector<double> baseline;
  for (const Point2& p : probes) baseline.push_back(cache.transmission(*held, p));

  // Fill the cache to capacity with distinct origins; after every single
  // prepare the held field must still read back bit-identically.
  for (std::size_t k = 1; k < kMaxFields; ++k) {
    const Point2 origin{5.0 + 10.0 * static_cast<double>(k), 20.0};
    ASSERT_NE(cache.prepare(origin), nullptr) << "prepare " << k;
    ASSERT_EQ(held->origin, held_origin) << "after prepare " << k;
    for (std::size_t j = 0; j < probes.size(); ++j) {
      ASSERT_EQ(cache.transmission(*held, probes[j]), baseline[j])
          << "after prepare " << k << ", probe " << j;
    }
  }
  EXPECT_EQ(cache.field_count(), kMaxFields);

  // At capacity a new origin is declined, existing origins still hit, and a
  // repeat prepare returns the very same pointer.
  EXPECT_EQ(cache.prepare(Point2{1.0, 1.0}), nullptr);
  EXPECT_EQ(cache.prepare(held_origin), held);
  EXPECT_EQ(cache.field_count(), kMaxFields);
}

TEST(StressGeometry, CacheRevisionChurnDropsAndRebuildsFields) {
  Environment env(make_area(100.0, 100.0),
                  {Obstacle(make_rect(40.0, 0.0, 60.0, 80.0), 0.0693)});
  TransmissionCache cache(env, 2.0, 16);

  const Point2 origin{10.0, 50.0};
  const Point2 behind_wall{90.0, 50.0};
  const TransmissionCache::Field* before = cache.prepare(origin);
  ASSERT_NE(before, nullptr);
  const double t_before = cache.transmission(*before, behind_wall);
  (void)cache.prepare(Point2{20.0, 20.0});
  (void)cache.prepare(Point2{30.0, 30.0});
  EXPECT_EQ(cache.field_count(), 3u);

  // An obstacle change bumps the revision: the next prepare drops every
  // stale field and rebuilds against the new geometry.
  env.add_obstacle(Obstacle(make_rect(70.0, 0.0, 75.0, 100.0), 0.0693));
  const TransmissionCache::Field* after = cache.prepare(origin);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(cache.field_count(), 1u);
  EXPECT_LT(cache.transmission(*after, behind_wall), t_before)
      << "rebuilt field must see the extra wall";

  // Churn: alternate obstacle edits and prepares for several rounds.
  for (int round = 0; round < 4; ++round) {
    env.add_obstacle(Obstacle(
        make_rect(5.0 + round, 5.0, 6.0 + round, 95.0), 0.01));
    const TransmissionCache::Field* f = cache.prepare(origin);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(cache.field_count(), 1u) << "revision change must drop all fields";
    const double t = cache.transmission(*f, behind_wall);
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(StressGeometry, PathologicalObstacleGeometryKeepsTransmissionPhysical) {
  const AreaBounds area = make_area(100.0, 100.0);
  struct Case {
    const char* name;
    Environment env;
  };
  const Case cases[] = {
      {"sliver wall", Environment(area, {Obstacle(make_rect(50.0, 0.0, 50.001, 100.0), 0.5)})},
      {"area-covering slab", Environment(area, {Obstacle(make_rect(0.0, 0.0, 100.0, 100.0), 0.02)})},
      {"opaque block", Environment(area, {Obstacle(make_rect(30.0, 30.0, 70.0, 70.0), 1e6)})},
      {"transparent block", Environment(area, {Obstacle(make_rect(30.0, 30.0, 70.0, 70.0), 0.0)})},
      {"stacked overlapping slabs",
       Environment(area, {Obstacle(make_rect(20.0, 0.0, 40.0, 100.0), 0.0693),
                          Obstacle(make_rect(30.0, 0.0, 50.0, 100.0), 0.0693),
                          Obstacle(make_rect(35.0, 40.0, 36.0, 60.0), 0.5)})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TransmissionCache cache(c.env, 2.5, 8);
    // One origin outside the blocks, one deliberately inside the 30..70 block.
    for (const Point2 origin : {Point2{5.0, 5.0}, Point2{50.0, 50.0}}) {
      const TransmissionCache::Field* field = cache.prepare(origin);
      ASSERT_NE(field, nullptr);
      Rng rng(17);
      for (int i = 0; i < 200; ++i) {
        const Point2 target = uniform_point(rng, area);
        const double cached = cache.transmission(*field, target);
        ASSERT_TRUE(std::isfinite(cached));
        ASSERT_GE(cached, 0.0);
        ASSERT_LE(cached, 1.0);
        const double exact = c.env.transmission(Segment{origin, target});
        ASSERT_TRUE(std::isfinite(exact));
        ASSERT_GE(exact, 0.0);
        ASSERT_LE(exact, 1.0);
      }
    }
  }

  // Accuracy is only meaningful where the field is smooth; near an opaque
  // silhouette edge the exact field is effectively a step and interpolation
  // error legitimately approaches 1. The area-covering slab has no edges
  // inside the bounds — attenuation is mu * distance — so there the cache
  // must track exact geometry tightly.
  Environment slab(area, {Obstacle(make_rect(0.0, 0.0, 100.0, 100.0), 0.02)});
  TransmissionCache cache(slab, 2.5, 8);
  const Point2 origin{5.0, 5.0};
  const TransmissionCache::Field* field = cache.prepare(origin);
  ASSERT_NE(field, nullptr);
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    const Point2 target = uniform_point(rng, area);
    const double exact = slab.transmission(Segment{origin, target});
    EXPECT_NEAR(cache.transmission(*field, target), exact, 0.01);
  }
}

void expect_matches_brute_force(const GridIndex& index, const std::vector<Point2>& points,
                                const Point2& center, double radius) {
  std::vector<std::uint32_t> got;
  index.query_radius(points, center, radius, got);
  std::sort(got.begin(), got.end());

  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (distance2(points[i], center) <= radius * radius) want.push_back(i);
  }
  ASSERT_EQ(got, want) << "center (" << center.x << ", " << center.y << ") radius " << radius;
}

TEST(StressGeometry, GridIndexMatchesBruteForceAcrossSeedsAndRadii) {
  const AreaBounds area = make_area(100.0, 100.0);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::size_t n = 50 + uniform_index(rng, 500);
    std::vector<Point2> points;
    for (std::size_t i = 0; i < n; ++i) points.push_back(uniform_point(rng, area));
    // A few points pinned exactly on the boundary and corners.
    points.push_back({0.0, 0.0});
    points.push_back({100.0, 100.0});
    points.push_back({0.0, 100.0});
    points.push_back({50.0, 0.0});

    GridIndex index(area, 7.0);
    index.rebuild(points);
    ASSERT_EQ(index.size(), points.size());

    for (const double radius : {0.0, 0.5, 7.0, 33.0, 1000.0}) {
      // Centers inside, on the boundary, and far outside the area.
      expect_matches_brute_force(index, points, uniform_point(rng, area), radius);
      expect_matches_brute_force(index, points, {0.0, 0.0}, radius);
      expect_matches_brute_force(index, points, {100.0, 50.0}, radius);
      expect_matches_brute_force(index, points, {250.0, -80.0}, radius);
    }
  }
}

TEST(StressGeometry, GridIndexSurvivesRebuildChurnAndDegenerateSets) {
  const AreaBounds area = make_area(100.0, 100.0);
  GridIndex index(area, 5.0);
  Rng rng(29);
  std::vector<std::uint32_t> out;

  // Empty set: no matches anywhere.
  std::vector<Point2> points;
  index.rebuild(points);
  index.query_radius(points, {50.0, 50.0}, 1000.0, out);
  EXPECT_TRUE(out.empty());

  // Every point identical: all or nothing depending on radius.
  points.assign(137, Point2{42.0, 42.0});
  index.rebuild(points);
  index.query_radius(points, {42.0, 42.0}, 0.0, out);
  EXPECT_EQ(out.size(), 137u);
  index.query_radius(points, {43.0, 42.0}, 0.5, out);
  EXPECT_TRUE(out.empty());

  // Rebuild churn with wildly varying sizes; brute-force parity each time.
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = uniform_index(rng, 300);
    points.clear();
    for (std::size_t i = 0; i < n; ++i) points.push_back(uniform_point(rng, area));
    index.rebuild(points);
    ASSERT_EQ(index.size(), n);
    expect_matches_brute_force(index, points, uniform_point(rng, area), 12.0);
  }
}

// The incrementally maintained index must be indistinguishable from a
// fresh rebuild over the same points: same indices in the same order (the
// filter's resample and mass reductions consume that order), and the same
// set as brute force.
void expect_same_as_rebuild(const GridIndex& index, const std::vector<Point2>& points,
                            const AreaBounds& area, double cell, Rng& rng) {
  ASSERT_EQ(index.size(), points.size());
  GridIndex fresh(area, cell);
  fresh.rebuild(points);
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  const Point2 centers[] = {uniform_point(rng, area), uniform_point(rng, area), {0.0, 0.0},
                            {100.0, 100.0}, {-40.0, 130.0}};
  for (const Point2& c : centers) {
    for (const double radius : {0.0, 3.5, 7.0, 14.0, 40.0, 1000.0}) {
      index.query_radius(points, c, radius, got);
      fresh.query_radius(points, c, radius, want);
      ASSERT_EQ(got, want) << "center (" << c.x << ", " << c.y << ") radius " << radius;
      expect_matches_brute_force(index, points, c, radius);
    }
  }
}

TEST(StressGeometry, GridIndexIncrementalUpdateMatchesRebuildInOrder) {
  const AreaBounds area = make_area(100.0, 100.0);
  const double cell = 7.0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::size_t n = 200 + uniform_index(rng, 800);
    std::vector<Point2> points;
    for (std::size_t i = 0; i < n; ++i) points.push_back(uniform_point(rng, area));
    GridIndex index(area, cell);
    index.rebuild(points);

    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    int in_place[6] = {};
    int fallbacks[6] = {};
    for (int round = 0; round < 60; ++round) {
      const int kind = round % 6;
      SCOPED_TRACE(::testing::Message() << "round " << round << " kind " << kind);
      // A batch of distinct slots in random order, like a fusion subset.
      const std::size_t k = kind == 5 ? n : 1 + uniform_index(rng, n / 8);
      for (std::size_t j = 0; j < k; ++j) {
        std::swap(order[j], order[j + uniform_index(rng, n - j)]);
      }
      std::vector<std::uint32_t> batch(order.begin(), order.begin() + static_cast<long>(k));
      const Point2 spot = uniform_point(rng, area);
      for (const std::uint32_t s : batch) {
        Point2& p = points[s];
        switch (kind) {
          case 0:  // resample jitter: mostly the same or a neighboring cell
            p = Point2{p.x + normal(rng, 0.0, 3.0), p.y + normal(rng, 0.0, 3.0)};
            break;
          case 1:  // random replacement: teleported anywhere
            p = uniform_point(rng, area);
            break;
          case 2:  // out of bounds, and exactly on the border (clamped cells)
            p = uniform01(rng) < 0.5 ? Point2{uniform(rng, -500.0, 600.0), -75.0}
                                     : Point2{100.0, uniform(rng, 0.0, 100.0)};
            break;
          case 3:  // the whole batch collapses into one cell: slack runs out
            p = Point2{spot.x + uniform(rng, -1.0, 1.0), spot.y + uniform(rng, -1.0, 1.0)};
            break;
          case 4:  // most of the batch stays put; the slot list repeats one
            if (uniform01(rng) < 0.2) p = uniform_point(rng, area);
            break;
          default:  // every point rewritten, order reversed
            p = uniform_point(rng, area);
            break;
        }
      }
      if (kind == 4) batch.push_back(batch.front());
      if (kind == 5) std::reverse(batch.begin(), batch.end());
      const std::uint64_t before = index.layouts();
      index.update(points, batch);
      (index.layouts() == before ? in_place : fallbacks)[kind] += 1;
      expect_same_as_rebuild(index, points, area, cell, rng);
      if (HasFatalFailure()) return;
    }
    // Both paths ran: the small jitter and teleport batches were applied in
    // place, and collapsing a batch into one cell laid the regions out anew.
    EXPECT_GT(in_place[0] + in_place[1], 0);
    EXPECT_GT(fallbacks[3], 0);
  }
}

TEST(StressGeometry, GridIndexUpdateWithNewSizeRebuilds) {
  const AreaBounds area = make_area(100.0, 100.0);
  Rng rng(31);
  std::vector<Point2> points;
  for (int i = 0; i < 50; ++i) points.push_back(uniform_point(rng, area));
  GridIndex index(area, 10.0);
  index.rebuild(points);
  const std::vector<std::uint32_t> none;
  index.update(points, none);
  EXPECT_EQ(index.layouts(), 1u);
  for (int i = 0; i < 30; ++i) points.push_back(uniform_point(rng, area));
  index.update(points, none);
  EXPECT_EQ(index.layouts(), 2u);
  expect_same_as_rebuild(index, points, area, 10.0, rng);
}

}  // namespace
}  // namespace radloc
