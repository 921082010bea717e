// Steady-state allocation regression test for the filter's per-reading path.
//
// Every container the hot path touches is a member or thread_local scratch
// buffer sized on first use: the spatial index's rebuild scratch, the fusion
// subset, the SoA gather slices, the resample picks and drawn-particle
// staging (src/radloc/filter/particle_filter.hpp). Once those have reached
// capacity, a reading must not allocate at all — this test counts EVERY
// global operator new (plain, array, aligned, nothrow) during readings
// processed after a warm-up pass and requires exactly zero.
//
// Most scenarios pin the subset size: the fusion range covers the whole
// area, so |P'| == num_particles for every reading. One scenario uses a
// partial-coverage disk over a multi-cell index, where subsets and index
// cells grow and shrink as the cloud concentrates; buffers sized from the
// particle count keep that path allocation-free too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "radloc/filter/particle_filter.hpp"
#include "radloc/sensornet/placement.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace {

std::atomic<long> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_alloc(std::size_t size) {
  note_alloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned_alloc(std::size_t size, std::align_val_t align) {
  note_alloc();
  const std::size_t al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, al, size != 0 ? size : al) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replacement allocation functions: counting wrappers over malloc. All forms
// are replaced as a set so new/delete stay paired (AlignedAllocator uses the
// align_val_t forms; the containers use the plain ones).
void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace radloc {
namespace {

long count_allocs_during_one_pass(FusionParticleFilter& filter,
                                  const std::vector<Measurement>& stream) {
  g_alloc_count.store(0);
  g_counting.store(true);
  for (const auto& m : stream) (void)filter.process(m);
  g_counting.store(false);
  return g_alloc_count.load();
}

void run_steady_state_scenario(bool cached_obstacles) {
  Environment env(make_area(60, 60));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);

  FilterConfig cfg;
  cfg.num_particles = 1500;
  cfg.fusion_range = 200.0;  // covers the whole area: |P'| is deterministic
  cfg.use_known_obstacles = cached_obstacles;
  cfg.use_transmission_cache = cached_obstacles;
  FusionParticleFilter filter(env, sensors, cfg, Rng(11));

  MeasurementSimulator sim(env, sensors, {{{20, 40}, 50.0}, {{45, 15}, 50.0}});
  Rng noise(12);
  std::vector<Measurement> stream;
  for (int step = 0; step < 3; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) stream.push_back(m);
  }

  // Warm-up: builds the transmission fields (when enabled) and grows every
  // scratch buffer to its steady-state capacity.
  for (const auto& m : stream) (void)filter.process(m);

  const long allocs = count_allocs_during_one_pass(filter, stream);
  EXPECT_EQ(allocs, 0) << "per-reading path allocated at steady state"
                       << " (cached_obstacles=" << cached_obstacles << ")";
}

TEST(SteadyStateAllocation, FreeSpaceReadingsAreAllocationFree) {
  run_steady_state_scenario(/*cached_obstacles=*/false);
}

TEST(SteadyStateAllocation, CachedObstacleReadingsAreAllocationFree) {
  run_steady_state_scenario(/*cached_obstacles=*/true);
}

TEST(SteadyStateAllocation, AdaptiveBudgetResizesAreAllocationFree) {
  // The adaptive budget's steady state cycles resize_budget() between a
  // small set of recurring sizes. initialize_particles reserves
  // max_particles capacity up front and resize_budget reuses the picks_/
  // drawn_ scratch, so once every recurring size has been visited (and each
  // size's fusion subset processed once), the resize+process cycle must not
  // allocate.
  Environment env(make_area(60, 60));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);

  FilterConfig cfg;
  cfg.num_particles = 1024;
  cfg.fusion_range = 200.0;  // covers the whole area: |P'| is deterministic
  cfg.adaptive_budget = true;
  cfg.min_particles = 256;
  cfg.max_particles = 1024;
  FusionParticleFilter filter(env, sensors, cfg, Rng(13));

  MeasurementSimulator sim(env, sensors, {{{20, 40}, 50.0}, {{45, 15}, 50.0}});
  Rng noise(14);
  std::vector<Measurement> stream;
  for (int step = 0; step < 2; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) stream.push_back(m);
  }

  const std::size_t cycle[] = {256, 1024, 512, 256};
  // Warm-up: visit every recurring size and process the stream at each.
  for (const std::size_t count : cycle) {
    (void)filter.resize_budget(count);
    for (const auto& m : stream) (void)filter.process(m);
  }

  g_alloc_count.store(0);
  g_counting.store(true);
  for (const std::size_t count : cycle) {
    (void)filter.resize_budget(count);
    for (const auto& m : stream) (void)filter.process(m);
  }
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "adaptive resize+process cycle allocated at steady state";
}

TEST(SteadyStateAllocation, FusedReadingsAreAllocationFree) {
  // Fused groups ride the same scratch as single readings; with the ESS
  // gate at 0.5 the stream both performs and skips resamples, so both
  // branches after the weight update run inside the counted pass.
  Environment env(make_area(60, 60));
  auto sensors = place_grid(env.bounds(), 4, 4);
  set_background(sensors, 5.0);

  FilterConfig cfg;
  cfg.num_particles = 1500;
  cfg.fusion_range = 200.0;  // covers the whole area: |P'| is deterministic
  cfg.ess_resample_threshold = 0.5;
  FusionParticleFilter filter(env, sensors, cfg, Rng(11));

  MeasurementSimulator sim(env, sensors, {{{20, 40}, 50.0}, {{45, 15}, 50.0}});
  Rng noise(12);
  // Runs of 3 same-sensor readings, each fused, then its first reading again
  // through the single-reading path.
  std::vector<Measurement> stream;
  for (int step = 0; step < 3; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) {
      for (int r = 0; r < 3; ++r) stream.push_back(m);
    }
  }
  const auto pass = [&] {
    for (std::size_t i = 0; i < stream.size(); i += 3) {
      (void)filter.process_fused(std::span{stream}.subspan(i, 3));
      (void)filter.process(stream[i]);
    }
  };
  pass();  // warm-up: every scratch at capacity

  const std::uint64_t groups = filter.fused_groups();
  const std::uint64_t performed = filter.resamples_performed();
  const std::uint64_t skipped = filter.resamples_skipped();
  g_alloc_count.store(0);
  g_counting.store(true);
  pass();
  g_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0) << "fused reading path allocated at steady state";
  EXPECT_GT(filter.fused_groups(), groups);
  EXPECT_GT(filter.resamples_performed(), performed) << "no resample ran in the counted pass";
  EXPECT_GT(filter.resamples_skipped(), skipped) << "no resample was skipped in the counted pass";
}

TEST(SteadyStateAllocation, PartialCoverageReadingsAreAllocationFree) {
  // The scenarios above use one fusion disk covering the whole area, which
  // is a single index cell: they cannot see per-cell growth. Here the disk
  // spans a few cells of a multi-cell grid and the stream is long enough for
  // the cloud to concentrate around the sources, so index cells fill and
  // empty and the fusion subsets change size reading by reading. The index
  // and the filter's scratch are sized from the particle count, so after
  // the first reading (which builds the index) nothing may allocate.
  Environment env(make_area(120, 120));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);

  FilterConfig cfg;
  cfg.num_particles = 2000;
  cfg.fusion_range = 28.0;  // index pitch 14: a 9x9 grid, each disk ~5x5 cells
  FusionParticleFilter filter(env, sensors, cfg, Rng(21));

  MeasurementSimulator sim(env, sensors, {{{30, 85}, 60.0}, {{90, 30}, 40.0}});
  Rng noise(22);
  std::vector<Measurement> stream;
  for (int step = 0; step < 40; ++step) {
    for (const auto& m : sim.sample_time_step(noise)) stream.push_back(m);
  }

  (void)filter.process(stream.front());
  const long allocs = count_allocs_during_one_pass(filter, stream);
  EXPECT_EQ(allocs, 0) << "partial-coverage reading path allocated after the first reading";
}

TEST(SteadyStateAllocation, CounterSeesOrdinaryAllocations) {
  // Sanity check of the harness itself: a vector growing under counting
  // must register, or the zero assertions above would be vacuous.
  g_alloc_count.store(0);
  g_counting.store(true);
  std::vector<double>* v = new std::vector<double>(256);
  g_counting.store(false);
  delete v;
  EXPECT_GE(g_alloc_count.load(), 1);
}

}  // namespace
}  // namespace radloc
