// paper_trials: the paper's large-network protocol (Sec. VI) on Scenario C
// with obstacles — 195 Poisson-placed sensors, nine sources, shuffled
// delivery, NP 15000, 30 steps per trial — with independent trials running
// concurrently on one shared pool.
//
// The trial loop is run_experiment's, driven step by step so that each
// step's process_all() (a sweep of the network) and estimate() can be
// timed. Per-trial random streams are split from the seed exactly as
// run_experiment splits them, and every run checks that its first trial is
// bit-identical to run_experiment() itself.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

using radloc::Measurement;
using radloc::Rng;
using radloc::Scenario;

constexpr std::size_t kSetupReps = 41;
constexpr std::size_t kSteps = 30;

Scenario make_world() { return radloc::make_scenario_c(5.0, /*with_obstacles=*/true); }

radloc::LocalizerConfig config_for(const Scenario& scenario) {
  radloc::LocalizerConfig cfg;
  cfg.filter.num_particles = scenario.recommended_particles;
  cfg.filter.fusion_range = scenario.recommended_fusion_range;
  return cfg;
}

/// The three per-trial streams, split serially from the seed in
/// run_experiment's order.
struct Streams {
  Rng noise;
  Rng delivery;
  std::uint64_t localizer_seed;
};

std::vector<Streams> split_streams(std::uint64_t seed, std::size_t trials) {
  Rng master(seed);
  std::vector<Streams> out;
  for (std::size_t t = 0; t < trials; ++t) {
    out.push_back(Streams{master.split(), master.split(), master()});
  }
  return out;
}

/// One step's delivered batch; advances both streams.
std::vector<Measurement> next_batch(const radloc::MeasurementSimulator& sim,
                                    radloc::ShuffledDelivery& delivery, Rng& noise, Rng& drng) {
  return delivery.deliver(drng, sim.sample_time_step(noise));
}

/// What a user sets up before the first trial's first reading: the
/// scenario, the trial pool, the per-scenario state run_experiment shares
/// across trials (the simulator's memoized rates) and the first trial's
/// localizer (built and dropped here; each trial builds its own).
struct TrialRig {
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<radloc::ThreadPool> pool;
  std::unique_ptr<radloc::MeasurementSimulator> sim;
};

TrialRig set_up(const Options& opt, const Streams& first, std::vector<double>& setup_s) {
  const auto t0 = Clock::now();
  TrialRig rig;
  rig.scenario = std::make_unique<Scenario>(make_world());
  rig.pool = std::make_unique<radloc::ThreadPool>(opt.threads);
  rig.sim = std::make_unique<radloc::MeasurementSimulator>(
      rig.scenario->env, rig.scenario->sensors, rig.scenario->sources);
  const radloc::MultiSourceLocalizer loc(rig.scenario->env, rig.scenario->sensors,
                                         config_for(*rig.scenario), first.localizer_seed,
                                         rig.pool.get());
  setup_s.push_back(seconds_between(t0, Clock::now()));
  return rig;
}

/// Times spare set-ups on a thread of its own, which runs no trial, while
/// the trials run. Trial threads request one at step boundaries, so each
/// sample sees the host at a different point of the run. The rigs are built
/// and dropped; the run keeps its own.
class SpareSetups {
 public:
  SpareSetups(const Options& opt, const Streams& first)
      : opt_(opt), first_(first), thread_([this] { loop(); }) {}
  SpareSetups(const SpareSetups&) = delete;
  SpareSetups& operator=(const SpareSetups&) = delete;
  ~SpareSetups() {
    if (thread_.joinable()) (void)finish();
  }

  void request() {
    {
      const std::lock_guard lock(mu_);
      ++pending_;
    }
    cv_.notify_one();
  }

  /// Runs the set-ups still pending, stops the thread and returns the times.
  std::vector<double> finish() {
    {
      const std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
    return std::move(samples_);
  }

 private:
  void loop();

  const Options& opt_;
  const Streams& first_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  bool done_ = false;
  std::vector<double> samples_;  ///< written by the thread until it is joined
  std::thread thread_;           ///< last, so it starts after the state it uses
};

void SpareSetups::loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return pending_ > 0 || done_; });
    if (pending_ == 0) return;
    --pending_;
    lock.unlock();
    (void)set_up(opt_, first_, samples_);
    lock.lock();
  }
}

struct TrialOut {
  std::vector<double> sweep_ms;
  std::vector<double> estimate_ms;
  Accuracy accuracy;
  std::vector<double> err;  ///< [step * sources + j], NaN when unmatched
  std::vector<double> fp, fn;
  std::uint64_t readings = 0;
  bool ok = false;
  ReplayResult final_state;
};

struct PassResult {
  RunRecord rec;
  double trials_per_sec = 0.0;
  double readings_per_sec = 0.0;
  radloc::ThreadPool::PoolStats pool_stats;
  TrialOut first;
};

PassResult trials_pass(const Options& opt, SpanLog* spans, bool timed_setup) {
  PassResult out;
  RunRecord& rec = out.rec;
  const std::vector<Streams> streams = split_streams(opt.seed, opt.units);
  const TrialRig rig = set_up(opt, streams.front(), rec.setup_s);
  const Scenario* scenario = rig.scenario.get();
  radloc::ThreadPool* pool = rig.pool.get();
  const radloc::LocalizerConfig cfg = config_for(*scenario);
  const radloc::MeasurementSimulator& sim = *rig.sim;
  const std::size_t nsrc = scenario->sources.size();

  // The run's rig is set-up sample one; the spares bring the count to
  // kSetupReps, one per `setup_every` steps completed across all trials.
  std::unique_ptr<SpareSetups> spares;
  if (timed_setup) spares = std::make_unique<SpareSetups>(opt, streams.front());
  const std::size_t setup_every = std::max<std::size_t>(opt.units * kSteps / (kSetupReps - 1), 1);
  std::atomic<std::size_t> steps_done{0};

  std::vector<TrialOut> trials(opt.units);
  std::mutex mu;  // guards `spans` and `failed`
  const auto run_trial = [&](std::size_t i) {
    TrialOut& t = trials[i];
    Rng noise = streams[i].noise;
    Rng drng = streams[i].delivery;
    radloc::ShuffledDelivery delivery;
    const auto trial_start = Clock::now();
    radloc::MultiSourceLocalizer loc(scenario->env, scenario->sensors, cfg,
                                     streams[i].localizer_seed, pool);
    t.err.assign(kSteps * nsrc, std::nan(""));
    std::vector<radloc::SourceEstimate> est;
    struct Timed {
      Clock::time_point start, end;
      std::uint64_t items;
    };
    std::vector<Timed> steps;  // kept per trial, logged when it ends
    for (std::size_t step = 0; step < kSteps; ++step) {
      const std::vector<Measurement> batch = next_batch(sim, delivery, noise, drng);
      const auto t0 = Clock::now();
      loc.process_all(batch);
      const auto t1 = Clock::now();
      est = loc.estimate();
      const auto t2 = Clock::now();
      t.sweep_ms.push_back(1e3 * seconds_between(t0, t1));
      t.estimate_ms.push_back(1e3 * seconds_between(t1, t2));
      t.readings += batch.size();
      if (spans != nullptr) {
        steps.push_back({t0, t1, batch.size()});
        steps.push_back({t1, t2, 1});
      }
      const radloc::MatchResult m = radloc::match_estimates(scenario->sources, est);
      t.accuracy.add(m);
      for (std::size_t j = 0; j < nsrc; ++j) {
        if (m.error[j]) t.err[step * nsrc + j] = *m.error[j];
      }
      t.fp.push_back(static_cast<double>(m.false_positives));
      t.fn.push_back(static_cast<double>(m.false_negatives));
      if (spares && (steps_done.fetch_add(1) + 1) % setup_every == 0) spares->request();
    }
    if (spans != nullptr) {
      // The trial span is the parent of its steps' process_all/estimate spans.
      const std::lock_guard lock(mu);
      const std::uint64_t id = spans->add("trial", trial_start, Clock::now());
      for (std::size_t k = 0; k < steps.size(); ++k) {
        spans->add(k % 2 == 0 ? "process_all" : "estimate", steps[k].start, steps[k].end, id,
                   steps[k].items);
      }
    }
    if (i == 0) {
      t.final_state = snapshot(loc);
      t.final_state.final_estimate = est;
    }
    t.ok = true;
  };

  // Trials run in waves of one trial per thread.
  std::uint64_t failed = 0;
  const std::size_t waves = (opt.units + opt.threads - 1) / opt.threads;
  for (std::size_t w = 0; w < waves; ++w) {
    const auto start = Clock::now();
    {
      radloc::ThreadPool::TaskGroup group(*pool);
      for (std::size_t i = w * opt.threads; i < std::min(opt.units, (w + 1) * opt.threads); ++i) {
        group.run([&run_trial, &failed, &mu, i] {
          try {
            run_trial(i);
          } catch (const std::exception&) {
            const std::lock_guard lock(mu);
            ++failed;
          }
        });
      }
      group.wait();
    }
    rec.step_busy_s.push_back(seconds_between(start, Clock::now()));
    rec.busy_s += rec.step_busy_s.back();
  }
  if (spares) {
    const std::vector<double> spare_s = spares->finish();
    rec.setup_s.insert(rec.setup_s.end(), spare_s.begin(), spare_s.end());
  }

  std::uint64_t done = 0, readings = 0;
  rec.step_readings.assign(waves, 0.0);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialOut& t = trials[i];
    if (!t.ok) continue;
    ++done;
    readings += t.readings;
    rec.step_readings[i / opt.threads] += static_cast<double>(t.readings);
    rec.sweep_ms.insert(rec.sweep_ms.end(), t.sweep_ms.begin(), t.sweep_ms.end());
    rec.estimate_ms.insert(rec.estimate_ms.end(), t.estimate_ms.begin(), t.estimate_ms.end());
    rec.accuracy.merge(t.accuracy);
  }
  rec.counts = {{"offered", opt.units},
                {"applied", done},
                {"failed_trials", failed},
                {"readings_applied", readings}};
  out.trials_per_sec = static_cast<double>(done) / rec.busy_s;
  out.readings_per_sec = static_cast<double>(readings) / rec.busy_s;
  rec.extra.num("trials_per_sec", out.trials_per_sec);
  out.pool_stats = pool->stats();
  out.first = std::move(trials.front());
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// run_experiment() with one trial must reproduce the harness's first trial.
bool matches_run_experiment(const Scenario& scenario, const radloc::LocalizerConfig& cfg,
                            std::uint64_t seed, const TrialOut& first, double& seconds) {
  radloc::ExperimentOptions eo;
  eo.time_steps = kSteps;
  eo.trials = 1;
  eo.seed = seed;
  eo.localizer = cfg;
  eo.num_threads = 1;
  const auto t0 = Clock::now();
  const radloc::ExperimentResult r = radloc::run_experiment(scenario, eo);
  seconds = seconds_between(t0, Clock::now());
  if (!first.ok) return false;
  const std::size_t nsrc = scenario.sources.size();
  for (std::size_t step = 0; step < kSteps; ++step) {
    for (std::size_t j = 0; j < nsrc; ++j) {
      if (!same_bits(r.error[step][j], first.err[step * nsrc + j])) return false;
    }
    if (!same_bits(r.false_positives[step], first.fp[step])) return false;
    if (!same_bits(r.false_negatives[step], first.fn[step])) return false;
  }
  return true;
}

}  // namespace

void run_trials(const Options& opt, RunRecord& rec, Layers& layers) {
  PassResult base = trials_pass(opt, nullptr, /*timed_setup=*/true);
  const Scenario world = make_world();
  const radloc::LocalizerConfig cfg = config_for(world);
  double trial_s = 0.0;
  base.rec.checks["run_experiment_identical"] =
      matches_run_experiment(world, cfg, opt.seed, base.first, trial_s);

  if (opt.trace) {
    SpanLog spans;
    const PassResult traced = trials_pass(opt, &spans, false);
    spans.write_jsonl(opt.spans_out);
    base.rec.checks["traced_counts_repeat"] = traced.rec.counts == base.rec.counts;

    // Trial 0's feed, regenerated from its streams, for the serial replay.
    const std::vector<Streams> streams = split_streams(opt.seed, 1);
    const radloc::MeasurementSimulator sim(world.env, world.sensors, world.sources);
    radloc::ShuffledDelivery delivery;
    Rng noise = streams[0].noise;
    Rng drng = streams[0].delivery;
    Feed feed;
    for (std::size_t step = 0; step < kSteps; ++step) {
      feed.batches.push_back(next_batch(sim, delivery, noise, drng));
      feed.estimate_after.push_back(step);
    }
    const Replay replayed = replay(world, cfg, streams[0].localizer_seed, feed);
    base.rec.checks["serial_replay_identical"] = same_state(base.first.final_state, replayed.state);

    layers["eval.trial_s"] = trial_s;
    layers["concurrency.tasks"] = static_cast<double>(base.pool_stats.tasks_executed);
    layers["concurrency.steals"] = static_cast<double>(base.pool_stats.steals);
    layers["concurrency.scaling"] =
        base.trials_per_sec * trial_s / static_cast<double>(opt.threads);
    layers["obs.trace_overhead"] = base.readings_per_sec / traced.readings_per_sec - 1.0;
    probe_layers(world, cfg, streams[0].localizer_seed, feed, replayed, layers);
    probe_service(world, cfg, streams[0].localizer_seed, feed, layers);
  }
  rec = std::move(base.rec);
}

}  // namespace perfbench
