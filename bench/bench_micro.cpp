// Micro-benchmarks of the hot primitives (google-benchmark): spatial grid
// queries, chord-length ray casts, Poisson sampling, the Poisson log-PMF,
// one filter iteration, and one mean-shift estimate. These are the kernels
// Table I's end-to-end time decomposes into; regressions here explain
// regressions there.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "radloc/common/math.hpp"
#include "radloc/filter/particle_filter.hpp"
#include "radloc/geom/grid_index.hpp"
#include "radloc/geom/intersect.hpp"
#include "radloc/geom/shapes.hpp"
#include "radloc/meanshift/meanshift.hpp"
#include "radloc/rng/distributions.hpp"
#include "radloc/sensornet/placement.hpp"

namespace {

using namespace radloc;

void BM_GridIndexRebuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  GridIndex index(area, 14.0);
  for (auto _ : state) {
    index.rebuild(pts);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_GridIndexRebuild)->Arg(2000)->Arg(15000);

// Incremental maintenance after a resample-sized rewrite: each iteration
// takes one of 64 fixed batches — the ~4% of points inside a disk, like a
// fusion subset — and swaps each point with its alternate (another batch
// member's position plus jitter, or 5% anywhere, like resample and random
// replacement), then re-bins just those: the filter's per-reading index
// cost in place of a full rebuild.
void BM_GridIndexUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  std::vector<Point2> alt = pts;
  GridIndex index(area, 14.0);
  index.rebuild(pts);
  std::vector<std::vector<std::uint32_t>> batches(64);
  for (auto& batch : batches) {
    index.query_radius(pts, uniform_point(rng, area), 11.3, batch);  // pi r^2 = 4% of the area
    for (const auto s : batch) {
      const Point2 drawn = pts[batch[uniform_index(rng, batch.size())]];
      alt[s] = uniform01(rng) < 0.05
                   ? uniform_point(rng, area)
                   : area.clamp({drawn.x + normal(rng, 0.0, 1.0), drawn.y + normal(rng, 0.0, 1.0)});
    }
  }
  std::size_t b = 0;
  std::size_t moved = 0;
  for (auto _ : state) {
    const auto& batch = batches[b++ % batches.size()];
    for (const auto s : batch) std::swap(pts[s], alt[s]);
    index.update(pts, batch);
    moved += batch.size();
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moved));
}
BENCHMARK(BM_GridIndexUpdate)->Arg(2000)->Arg(15000);

void BM_GridIndexQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const AreaBounds area = make_area(100, 100);
  std::vector<Point2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(uniform_point(rng, area));
  GridIndex index(area, 14.0);
  index.rebuild(pts);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    index.query_radius(pts, uniform_point(rng, area), 28.0, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(2000)->Arg(15000);

void BM_ChordLength(benchmark::State& state) {
  const Polygon u = make_u_shape(20, 20, 80, 70, 8.0);
  Rng rng(3);
  const AreaBounds area = make_area(100, 100);
  for (auto _ : state) {
    const Segment seg{uniform_point(rng, area), uniform_point(rng, area)};
    benchmark::DoNotOptimize(chord_length(seg, u));
  }
}
BENCHMARK(BM_ChordLength);

void BM_PoissonSample(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson(rng, lambda));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(5)->Arg(100)->Arg(10000);

void BM_PoissonLogPmf(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson_log_pmf(uniform(rng, 0, 100), uniform(rng, 1, 100)));
  }
}
BENCHMARK(BM_PoissonLogPmf);

void BM_FilterIteration(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  Environment env(make_area(100, 100));
  auto sensors = place_grid(env.bounds(), 6, 6);
  set_background(sensors, 5.0);
  FilterConfig cfg;
  cfg.num_particles = particles;
  FusionParticleFilter filter(env, sensors, cfg, Rng(6));
  Rng rng(7);
  for (auto _ : state) {
    const auto sensor = static_cast<SensorId>(uniform_index(rng, sensors.size()));
    benchmark::DoNotOptimize(filter.process({sensor, std::floor(uniform(rng, 0, 40))}));
  }
}
BENCHMARK(BM_FilterIteration)->Arg(2000)->Arg(15000)->Unit(benchmark::kMicrosecond);

// One estimate() over a converged-looking cloud: 9 sources on a 3x3 grid
// (Scenario C's source count), 70% of the particles in tight clusters
// around them with strength scatter, the rest spread uniformly, jittered
// weights. Single-threaded pool, so the time is the estimator's work; the
// counters report its ascents, captured ascents and shift steps.
void BM_MeanShiftEstimate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const AreaBounds area = make_area(150, 150);
  std::vector<Point2> pos;
  std::vector<double> str;
  std::vector<double> w;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 10;
    if (c < 9) {
      const Point2 center{25.0 + 50.0 * static_cast<double>(c % 3),
                          25.0 + 50.0 * static_cast<double>(c / 3)};
      pos.push_back(area.clamp(
          {center.x + normal(rng, 0.0, 2.0), center.y + normal(rng, 0.0, 2.0)}));
      str.push_back((10.0 + 40.0 * static_cast<double>(c)) * std::exp(normal(rng, 0.0, 0.2)));
    } else {
      pos.push_back(uniform_point(rng, area));
      str.push_back(std::exp(uniform(rng, std::log(4.0), std::log(1000.0))));
    }
    w.push_back(uniform(rng, 0.5, 1.5));
  }
  ThreadPool pool(1);
  MeanShiftEstimator est(area, MeanShiftConfig{}, pool);
  for (auto _ : state) benchmark::DoNotOptimize(est.estimate(pos, str, w));
  const MeanShiftWork work = est.last_work();
  state.counters["ascents"] = static_cast<double>(work.ascents);
  state.counters["captured"] = static_cast<double>(work.captured);
  state.counters["shift_steps"] = static_cast<double>(work.shift_steps);
}
BENCHMARK(BM_MeanShiftEstimate)->Arg(2000)->Arg(15000)->Unit(benchmark::kMillisecond);

/// Console reporter that records per-iteration real time so the main can
/// emit the stable-schema BENCH_micro.json after the run.
class TimeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.iterations > 0) {
        seconds[run.benchmark_name()] =
            run.real_accumulated_time / static_cast<double>(run.iterations);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> seconds;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      radloc::bench::detail::smoke_flag() = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time_flag = "--benchmark_min_time=0.01";
  if (radloc::bench::smoke()) args.push_back(min_time_flag.data());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  TimeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  radloc::bench::JsonWriter json("micro");
  for (const auto& [name, secs] : reporter.seconds) {
    json.add("kernels", name, "seconds_per_op", secs);
  }
  json.write();
  return 0;
}
