// Per-layer probes. Each layer is timed from outside, through its public
// functions, on the feed of one replayed session (or trial) and on the
// particle cloud that replay ends with.
#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>

#include "harness.hpp"
#include "radloc/obs/export.hpp"
#include "radloc/simd/aligned.hpp"
#include "radloc/simd/simd.hpp"

namespace perfbench {
namespace {

using radloc::Measurement;
using radloc::MultiSourceLocalizer;

constexpr std::size_t kReps = 15;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool is_due(const Feed& feed, std::size_t batch) {
  return std::binary_search(feed.estimate_after.begin(), feed.estimate_after.end(), batch);
}

/// Median over kReps runs of `fn`, in seconds.
template <typename Fn>
double median_seconds(Fn&& fn, std::size_t reps = kReps) {
  std::vector<double> t;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// Core, filter, adaptive and sensornet figures of the serial replay, from
/// its try_process_all timings and the counters its localizer ends with.
void probe_core(const Feed& feed, const Replay& r, Layers& layers) {
  const radloc::FusionParticleFilter& f = r.loc->filter();
  const double n = static_cast<double>(std::max<std::uint64_t>(r.readings, 1));
  const double updates = std::max(
      1.0, n - static_cast<double>(f.fused_readings()) + static_cast<double>(f.fused_groups()));
  const auto resamples = static_cast<double>(f.resamples_performed() + f.resamples_skipped());
  layers["core.process_us"] = 1e6 * r.process_s / n;
  layers["filter.subset_mean"] = static_cast<double>(f.particles_scored()) / updates;
  layers["filter.resample_rate"] =
      resamples > 0.0 ? static_cast<double>(f.resamples_performed()) / resamples : 0.0;
  layers["filter.generations_per_reading"] = static_cast<double>(f.particle_generation()) / n;
  layers["filter.fused_len"] = n / updates;
  layers["filter.ess_fraction"] = f.effective_sample_size() / static_cast<double>(f.size());
  const radloc::BudgetDiagnostics bd = r.loc->budget_diagnostics();
  layers.emplace("adaptive.budget_mean",
                 r.budget_sum / static_cast<double>(std::max<std::size_t>(r.batches, 1)));
  layers["adaptive.controller_runs"] = static_cast<double>(bd.controller_runs);
  layers["adaptive.resizes"] = static_cast<double>(bd.grow_events + bd.shrink_events);
  layers["adaptive.ess_alarms"] = static_cast<double>(bd.ess_alarm_events);

  std::uint64_t out_of_order = 0, pairs = 0;
  for (const auto& batch : feed.batches) {
    for (std::size_t i = 1; i < batch.size(); ++i) {
      out_of_order += batch[i].sensor < batch[i - 1].sensor ? 1 : 0;
      ++pairs;
    }
  }
  layers["sensornet.out_of_order_share"] =
      pairs > 0 ? static_cast<double>(out_of_order) / static_cast<double>(pairs) : 0.0;
}

/// FusionParticleFilter driven directly: process() per reading, or
/// process_fused() per same-sensor run when the config fuses.
void probe_filter(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                  std::uint64_t seed, const Feed& feed, Layers& layers) {
  MultiSourceLocalizer loc(scenario.env, scenario.sensors, cfg, seed);
  radloc::FusionParticleFilter& f = loc.filter();
  double seconds = 0.0;
  std::uint64_t readings = 0;
  try {
    for (const auto& batch : feed.batches) {
      for (std::size_t i = 0; i < batch.size();) {
        std::size_t j = i + 1;
        if (cfg.filter.fused_batch_updates) {
          while (j < batch.size() && batch[j].sensor == batch[i].sensor) ++j;
        }
        const std::span<const Measurement> group(batch.data() + i, j - i);
        const auto t0 = Clock::now();
        if (group.size() == 1) {
          (void)f.process(group.front());
        } else {
          (void)f.process_fused(group);
        }
        seconds += seconds_between(t0, Clock::now());
        readings += group.size();
        i = j;
      }
    }
  } catch (const std::exception&) {
    // Without the localizer's budget controller the filter may hit the
    // non-finite-weight failure; the readings timed so far still count.
  }
  layers["filter.process_us"] =
      1e6 * seconds / static_cast<double>(std::max<std::uint64_t>(readings, 1));
}

void probe_cloud(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                 MultiSourceLocalizer& loc, Layers& layers) {
  const radloc::FusionParticleFilter& f = loc.filter();
  const auto pos = f.positions();
  const auto str = f.strengths();
  const auto w = f.weights();
  const std::size_t n = pos.size();

  // meanshift + core detection: estimate() is mean-shift plus the
  // detection test; the raw estimator alone is the mean-shift layer.
  radloc::ThreadPool pool(1);
  radloc::MeanShiftEstimator ms(scenario.env.bounds(), cfg.meanshift, pool);
  std::size_t modes = 0;
  const double raw_s = median_seconds([&] { modes = ms.estimate(pos, str, w).size(); });
  const double full_s = median_seconds([&] { (void)loc.estimate(); });
  layers["meanshift.estimate_ms"] = 1e3 * raw_s;
  layers["meanshift.modes"] = static_cast<double>(modes);
  layers["core.detect_ms"] = 1e3 * (full_s - raw_s);

  // geom: the filter's index pitch is half the fusion range (at least 1).
  radloc::GridIndex grid(scenario.env.bounds(), std::max(cfg.filter.fusion_range / 2.0, 1.0));
  layers["geom.rebuild_us"] = 1e6 * median_seconds([&] { grid.rebuild(pos); });
  std::vector<std::uint32_t> hits;
  const double query_s = median_seconds([&] {
    for (const radloc::Sensor& s : scenario.sensors) {
      grid.query_radius(pos, s.pos, cfg.filter.fusion_range, hits);
    }
  });
  layers["geom.query_us"] = 1e6 * query_s / static_cast<double>(scenario.sensors.size());

  // simd: per-particle cost of the active tier's scoring kernels.
  radloc::simd::AVector<double> x(n), y(n), s(n), rates(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = pos[i].x;
    y[i] = pos[i].y;
    s[i] = str[i];
  }
  const radloc::simd::Kernels& k = radloc::simd::kernels();
  const radloc::Sensor& sensor = scenario.sensors.front();
  const double scale = radloc::kMicroCurieToCpm * sensor.response.efficiency;
  constexpr std::size_t kInner = 64;
  const double per = 1e9 / static_cast<double>(kInner * std::max<std::size_t>(n, 1));
  layers["simd.rates_ns"] = per * median_seconds([&] {
    for (std::size_t r = 0; r < kInner; ++r) {
      k.hypothesis_rates(sensor.pos.x, sensor.pos.y, scale, sensor.response.background_cpm,
                         x.data(), y.data(), s.data(), nullptr, rates.data(), n);
    }
  });
  const double count = 12.0;
  const double log_fact = radloc::log_factorial(count);
  layers["simd.poisson_ns"] = per * median_seconds([&] {
    for (std::size_t r = 0; r < kInner; ++r) {
      k.poisson_log_pmf(count, log_fact, rates.data(), out.data(), n);
    }
  });
  layers["simd.fused_ns"] = per * median_seconds([&] {
    for (std::size_t r = 0; r < kInner; ++r) {
      k.poisson_log_pmf_fused(8.0 * count, 8.0, 8.0 * log_fact, rates.data(), out.data(), n);
    }
  });
}

void probe_validator(const radloc::Scenario& scenario, const Feed& feed, Layers& layers) {
  const radloc::MeasurementValidator v(scenario.sensors.size());
  std::uint64_t readings = 0, faults = 0;
  const double s = median_seconds([&] {
    readings = 0;
    for (std::size_t b = 0; b < feed.batches.size(); ++b) {
      for (const Measurement& m : feed.batches[b]) {
        faults += v.check_timed(m, static_cast<double>(b)) != radloc::ReadingFault::kNone;
        ++readings;
      }
    }
  });
  layers["sensornet.validate_ns"] =
      1e9 * s / static_cast<double>(std::max<std::uint64_t>(readings, 1));
  if (faults > 0) throw std::runtime_error("replayed feed holds malformed readings");
}

}  // namespace

ReplayResult snapshot(const MultiSourceLocalizer& loc) {
  const radloc::FusionParticleFilter& f = loc.filter();
  ReplayResult r;
  r.positions.assign(f.positions().begin(), f.positions().end());
  r.strengths.assign(f.strengths().begin(), f.strengths().end());
  r.weights.assign(f.weights().begin(), f.weights().end());
  r.iterations = loc.iterations();
  return r;
}

Replay replay(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
              std::uint64_t seed, const Feed& feed) {
  Replay r;
  r.loc = std::make_unique<MultiSourceLocalizer>(scenario.env, scenario.sensors, cfg, seed);
  MultiSourceLocalizer& loc = *r.loc;
  bool threw = false;
  for (std::size_t b = 0; b < feed.batches.size(); ++b) {
    const auto t0 = Clock::now();
    try {
      (void)loc.try_process_all(feed.batches[b]);
    } catch (const std::exception&) {
      threw = true;
      break;
    }
    r.process_s += seconds_between(t0, Clock::now());
    r.readings += feed.batches[b].size();
    ++r.batches;
    r.budget_sum += static_cast<double>(loc.filter().size());
    if (is_due(feed, b)) (void)loc.estimate();
  }
  r.state = snapshot(loc);
  r.state.final_estimate = loc.estimate();
  r.state.threw = threw;
  return r;
}

bool same_state(const ReplayResult& a, const ReplayResult& b) {
  if (a.iterations != b.iterations || a.threw != b.threw) return false;
  if (a.positions.size() != b.positions.size() || a.weights != b.weights ||
      a.strengths != b.strengths || a.final_estimate.size() != b.final_estimate.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    if (!same_bits(a.positions[i].x, b.positions[i].x) ||
        !same_bits(a.positions[i].y, b.positions[i].y)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.final_estimate.size(); ++i) {
    const auto& p = a.final_estimate[i];
    const auto& q = b.final_estimate[i];
    if (!same_bits(p.pos.x, q.pos.x) || !same_bits(p.pos.y, q.pos.y) ||
        !same_bits(p.strength, q.strength) || !same_bits(p.support, q.support)) {
      return false;
    }
  }
  return true;
}

void probe_layers(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                  std::uint64_t seed, const Feed& feed, const Replay& replayed, Layers& layers) {
  probe_core(feed, replayed, layers);
  probe_filter(scenario, cfg, seed, feed, layers);
  probe_cloud(scenario, cfg, *replayed.loc, layers);
  layers["geom.rebuild_share"] = layers["geom.rebuild_us"] *
                                 layers["filter.generations_per_reading"] /
                                 layers["filter.process_us"];
  probe_validator(scenario, feed, layers);
}

void probe_service(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                   std::uint64_t seed, const Feed& feed, Layers& layers) {
  radloc::obs::MetricsRegistry registry;
  radloc::ThreadPool pool(1);
  radloc::SessionManager mgr(pool, radloc::ServiceObservability{&registry, nullptr});
  radloc::SessionConfig sc;
  sc.localizer = cfg;
  std::size_t capacity = 1;
  for (const auto& b : feed.batches) capacity = std::max(capacity, b.size());
  sc.queue_capacity = capacity;
  const auto id = mgr.open(scenario.env, scenario.sensors, sc, seed);
  double ingest_s = 0.0, drain_s = 0.0, stats_s = 0.0;
  std::uint64_t readings = 0, failed_drains = 0;
  for (std::size_t b = 0; b < feed.batches.size(); ++b) {
    const auto t0 = Clock::now();
    for (const Measurement& m : feed.batches[b]) {
      (void)mgr.ingest(id, radloc::SessionReading{static_cast<double>(b), m});
    }
    const auto t1 = Clock::now();
    try {
      mgr.drain_all();
    } catch (const std::exception&) {
      ++failed_drains;
    }
    const auto t2 = Clock::now();
    (void)mgr.stats(id);
    stats_s += seconds_between(t2, Clock::now());
    ingest_s += seconds_between(t0, t1);
    drain_s += seconds_between(t1, t2);
    readings += feed.batches[b].size();
  }
  const radloc::SessionStats st = mgr.stats(id);
  const double batches = static_cast<double>(std::max<std::size_t>(feed.batches.size(), 1));
  layers["service.ingest_ns"] =
      1e9 * ingest_s / static_cast<double>(std::max<std::uint64_t>(readings, 1));
  layers["service.drain_ms"] = 1e3 * drain_s / batches;
  layers["service.stats_us"] = 1e6 * stats_s / batches;
  layers["service.lost_readings"] =
      static_cast<double>(st.ingested - st.processed - st.queue_depth);
  layers["service.failed_drains"] = static_cast<double>(failed_drains);
  layers["service.restarts"] = 0.0;
  layers["obs.export_ms"] =
      1e3 * median_seconds([&] { (void)radloc::obs::prometheus_text(registry); });
}


double probe_export_ms(const radloc::Scenario& scenario, const radloc::SessionConfig& cfg,
                       std::size_t sessions, std::uint64_t seed) {
  radloc::obs::MetricsRegistry registry;
  radloc::ThreadPool pool(1);
  radloc::SessionManager mgr(pool, radloc::ServiceObservability{&registry, nullptr});
  for (std::size_t k = 0; k < sessions; ++k) {
    (void)mgr.open(scenario.env, scenario.sensors, cfg, mix(seed, k, 0));
  }
  return 1e3 * median_seconds([&] { (void)radloc::obs::prometheus_text(registry); });
}

double time_one_trial(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                      std::uint64_t seed) {
  radloc::ExperimentOptions eo;
  eo.trials = 1;
  eo.seed = seed;
  eo.localizer = cfg;
  eo.use_scenario_defaults = false;
  eo.num_threads = 1;
  const auto t0 = Clock::now();
  (void)radloc::run_experiment(scenario, eo);
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
