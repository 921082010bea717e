// serve_paper and serve_burst: closed-loop sweeps through SessionManager.
//
// A sweep offers every session its readings for one sensor sweep, then
// calls drain_all(); the next sweep starts only after drain_all() returns.
// The harness acts as the supervisor a deployment would run: after each
// drain it reads stats(id) and treats a session whose `processed` count did
// not advance by the readings it admitted as failed (its drain threw). A
// failed session is closed and reopened with a deterministic seed, so the
// offered load stays the same whatever fails.
#include <algorithm>
#include <exception>
#include <memory>

#include "harness.hpp"
#include "radloc/obs/export.hpp"

namespace perfbench {
namespace {

using radloc::Measurement;
using radloc::MeasurementSimulator;
using radloc::Rng;
using radloc::Scenario;
using radloc::SessionManager;
using SessionId = SessionManager::SessionId;

constexpr std::size_t kSetupReps = 41;
constexpr std::size_t kExportReps = 21;

struct ServeSpec {
  std::size_t sessions = 8;
  std::size_t dwell = 1;           ///< consecutive readings per sensor per sweep
  std::size_t round = 0;           ///< sweeps per session trial; 0 = one for the run
  std::size_t estimate_every = 0;  ///< estimate every n-th sweep of a trial; 0 = eval sweeps
  bool registry = false;
  radloc::SessionConfig cfg;
};

Scenario make_world() { return radloc::make_scenario_a(10.0, 5.0, /*with_obstacle=*/true); }

ServeSpec spec_for(const std::string& workload) {
  ServeSpec spec;
  auto& f = spec.cfg.localizer.filter;
  f.num_particles = 2000;
  f.fusion_range = 28.0;
  if (workload == "serve_paper") {
    spec.sessions = 8;
    spec.round = 30;
    spec.estimate_every = 5;
  } else {
    // radloc_serve --adaptive --fused
    spec.sessions = 16;
    spec.dwell = 8;
    spec.registry = true;
    f.fused_batch_updates = true;
    f.adaptive_budget = true;
    f.max_particles = f.num_particles;
    f.min_particles = f.num_particles / 4;
    f.ess_resample_threshold = 0.5;
  }
  return spec;
}

/// Long-lived sessions estimate at sweeps 1, 2, 4, 8 and every 16th. Misses
/// there are short-lived, so accuracy needs this many evaluation points to
/// repeat across seeds; estimates still take under a tenth of the run.
bool is_eval_sweep(std::size_t sweep) {
  return (sweep < 16 && (sweep & (sweep - 1)) == 0) || sweep % 16 == 0;
}

/// One sweep of a session's feed: `dwell` time steps, grouped by sensor so
/// each sensor's readings arrive back to back.
std::vector<Measurement> make_sweep(const MeasurementSimulator& sim, Rng& rng,
                                    std::size_t dwell) {
  if (dwell == 1) return sim.sample_time_step(rng);
  std::vector<std::vector<Measurement>> steps;
  for (std::size_t r = 0; r < dwell; ++r) steps.push_back(sim.sample_time_step(rng));
  std::vector<Measurement> out;
  out.reserve(dwell * steps.front().size());
  for (std::size_t s = 0; s < steps.front().size(); ++s) {
    for (std::size_t r = 0; r < dwell; ++r) out.push_back(steps[r][s]);
  }
  return out;
}

/// Everything a user sets up before the first reading. Member order is
/// destruction order reversed: sessions go before the pool and registry
/// they use, and the scenario (whose environment they borrow) goes last.
struct Rig {
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<radloc::obs::MetricsRegistry> registry;
  std::unique_ptr<radloc::ThreadPool> pool;
  std::unique_ptr<SessionManager> mgr;
  std::vector<SessionId> ids;
};

std::unique_ptr<Rig> set_up(const ServeSpec& spec, std::uint64_t seed, std::size_t threads) {
  auto rig = std::make_unique<Rig>();
  rig->scenario = std::make_unique<Scenario>(make_world());
  if (spec.registry) rig->registry = std::make_unique<radloc::obs::MetricsRegistry>();
  rig->pool = std::make_unique<radloc::ThreadPool>(threads);
  rig->mgr = std::make_unique<SessionManager>(
      *rig->pool, radloc::ServiceObservability{rig->registry.get(), nullptr});
  for (std::size_t k = 0; k < spec.sessions; ++k) {
    rig->ids.push_back(
        rig->mgr->open(rig->scenario->env, rig->scenario->sensors, spec.cfg, mix(seed, k, 0)));
  }
  return rig;
}

/// Supervisor-side view of one session slot.
struct Tenant {
  std::uint64_t open_seed = 0;
  std::size_t incarnation = 0;
  std::size_t start_sweep = 0;  ///< sweeps completed before this incarnation opened
  Rng noise_at_open;            ///< feed stream at open, to regenerate the feed
  std::size_t prev_processed = 0;
  std::size_t prev_applied = 0;
  std::vector<std::size_t> estimate_after;  ///< incarnation-local batch indices
};

struct PassResult {
  RunRecord rec;
  double readings_per_sec = 0.0;
  double budget_mean = 0.0;
  double export_ms = 0.0;
  radloc::ThreadPool::PoolStats pool_stats;
  Feed feed;  ///< the replayed session's feed since its last open
  std::uint64_t replay_seed = 0;
  ReplayResult managed;
};

PassResult serve_pass(const ServeSpec& spec, const Options& opt, std::size_t threads,
                      SpanLog* spans, bool timed_setup) {
  PassResult out;
  RunRecord& rec = out.rec;
  const Scenario world = make_world();
  const MeasurementSimulator sim(world.env, world.sensors, world.sources);

  // Set-up is timed kSetupReps times: once for the rig the run uses, and
  // then for spare rigs spread evenly over the run (outside the timed
  // loop), so its median sees the same host conditions as the sweeps.
  const auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Rig> r = set_up(spec, opt.seed, threads);
    rec.setup_s.push_back(seconds_between(t0, Clock::now()));
    return r;
  };
  const std::unique_ptr<Rig> rig = timed_set_up();
  const std::size_t setup_every = std::max<std::size_t>(opt.units / kSetupReps, 1);
  SessionManager& mgr = *rig->mgr;

  std::vector<Rng> noise;
  std::vector<Tenant> tenants(spec.sessions);
  for (std::size_t k = 0; k < spec.sessions; ++k) {
    noise.emplace_back(mix(opt.seed, 1000 + k));
    tenants[k].open_seed = mix(opt.seed, k, 0);
    tenants[k].noise_at_open = noise[k];
  }

  std::uint64_t offered = 0, ingest_rejects = 0, drain_rejects = 0, lost = 0, applied = 0;
  std::uint64_t throwing_readings = 0, failed_drains = 0, restarts = 0, drain_throws = 0;
  std::uint64_t budget_samples = 0;
  double budget_sum = 0.0;
  std::size_t first_fail_sweep = 0, first_fail_session = 0;
  std::string first_fail_message;

  const auto reopen = [&](std::size_t k, std::size_t sweep) {
    const radloc::SessionStats st = mgr.stats(rig->ids[k]);
    lost += st.ingested - st.processed;  // includes any queue close() discards
    drain_rejects += st.processed - st.applied;
    mgr.close(rig->ids[k]);
    Tenant& t = tenants[k];
    ++t.incarnation;
    t.open_seed = mix(opt.seed, k, t.incarnation);
    t.start_sweep = sweep;
    t.noise_at_open = noise[k];
    t.prev_processed = t.prev_applied = 0;
    t.estimate_after.clear();
    rig->ids[k] = mgr.open(rig->scenario->env, rig->scenario->sensors, spec.cfg, t.open_seed);
  };

  // A sweep's busy time runs from its first ingest to the end of its
  // supervision, estimates and reopens; feed generation and spare set-ups
  // fall outside it.
  std::vector<std::vector<Measurement>> batch(spec.sessions);
  std::vector<std::size_t> admitted(spec.sessions);
  for (std::size_t sweep = 1; sweep <= opt.units; ++sweep) {
    for (std::size_t k = 0; k < spec.sessions; ++k) {
      batch[k] = make_sweep(sim, noise[k], spec.dwell);
    }
    const std::uint64_t applied_before = applied;
    const auto t0 = Clock::now();

    for (std::size_t k = 0; k < spec.sessions; ++k) {
      admitted[k] = 0;
      for (const Measurement& m : batch[k]) {
        const radloc::IngestStatus s =
            mgr.ingest(rig->ids[k], radloc::SessionReading{static_cast<double>(sweep), m});
        if (s == radloc::IngestStatus::kQueued || s == radloc::IngestStatus::kQueuedDroppedOldest) {
          ++admitted[k];
        }
      }
      offered += batch[k].size();
      ingest_rejects += batch[k].size() - admitted[k];
    }
    const auto t1 = Clock::now();
    try {
      mgr.drain_all();
    } catch (const std::exception& e) {
      ++drain_throws;
      if (first_fail_message.empty()) first_fail_message = e.what();
    }
    const auto t2 = Clock::now();
    rec.sweep_ms.push_back(1e3 * seconds_between(t0, t2));
    std::uint64_t sweep_span = 0;
    if (spans != nullptr) {
      sweep_span = spans->add("sweep", t0, t2);
      std::uint64_t readings = 0;
      for (const auto& b : batch) readings += b.size();
      spans->add("ingest", t0, t1, sweep_span, readings);
      spans->add("drain_all", t1, t2, sweep_span);
    }

    for (std::size_t k = 0; k < spec.sessions; ++k) {
      Tenant& t = tenants[k];
      const auto s0 = Clock::now();
      const radloc::SessionStats st = mgr.stats(rig->ids[k]);
      if (spans != nullptr) spans->add("stats", s0, Clock::now(), sweep_span);
      if (st.processed != t.prev_processed + admitted[k]) {
        ++failed_drains;
        throwing_readings += admitted[k];
        if (first_fail_sweep == 0) {
          first_fail_sweep = sweep;
          first_fail_session = k;
        }
        ++restarts;
        const auto r0 = Clock::now();
        reopen(k, sweep);
        if (spans != nullptr) spans->add("reopen", r0, Clock::now(), sweep_span);
        continue;
      }
      applied += st.applied - t.prev_applied;
      t.prev_processed = st.processed;
      t.prev_applied = st.applied;
      budget_sum += static_cast<double>(st.current_budget);
      ++budget_samples;
    }

    for (std::size_t k = 0; k < spec.sessions; ++k) {
      Tenant& t = tenants[k];
      const std::size_t local = sweep - t.start_sweep;
      if (local == 0) continue;  // reopened in this sweep: no reading applied yet
      const bool due = spec.estimate_every > 0 ? local % spec.estimate_every == 0
                                               : is_eval_sweep(sweep);
      if (!due) continue;
      const auto e0 = Clock::now();
      const auto est = mgr.estimate(rig->ids[k]);
      const auto e1 = Clock::now();
      rec.estimate_ms.push_back(1e3 * seconds_between(e0, e1));
      if (spans != nullptr) spans->add("estimate", e0, e1, sweep_span);
      rec.accuracy.add(radloc::match_estimates(world.sources, est));
      t.estimate_after.push_back(local - 1);
    }

    if (spec.round > 0 && sweep % spec.round == 0 && sweep < opt.units) {
      for (std::size_t k = 0; k < spec.sessions; ++k) reopen(k, sweep);
    }
    rec.step_busy_s.push_back(seconds_between(t0, Clock::now()));
    rec.step_readings.push_back(static_cast<double>(applied - applied_before));
    rec.busy_s += rec.step_busy_s.back();
    if (timed_setup && sweep % setup_every == 0 && rec.setup_s.size() < kSetupReps) {
      (void)timed_set_up();
    }
  }

  // Sessions still open: readings that left the queue without being
  // processed are lost; what is still queued is neither applied nor failed.
  std::uint64_t queued = 0;
  for (std::size_t k = 0; k < spec.sessions; ++k) {
    const radloc::SessionStats st = mgr.stats(rig->ids[k]);
    lost += st.ingested - st.processed - st.queue_depth;
    drain_rejects += st.processed - st.applied;
    queued += st.queue_depth;
  }

  rec.counts = {{"offered", offered},
                {"applied", applied},
                {"ingest_rejects", ingest_rejects},
                {"drain_rejects", drain_rejects},
                {"lost", lost},
                {"queued", queued},
                {"throwing_drain_readings", throwing_readings},
                {"failed_drains", failed_drains},
                {"restarts", restarts},
                {"drain_all_throws", drain_throws}};
  rec.extra.integer("first_failure_sweep", first_fail_sweep)
      .integer("first_failure_session", first_fail_session)
      .str("first_failure_message", first_fail_message);
  out.readings_per_sec = static_cast<double>(applied) / rec.busy_s;
  out.budget_mean = budget_samples > 0 ? budget_sum / static_cast<double>(budget_samples) : 0.0;
  out.pool_stats = rig->pool->stats();
  if (rig->registry) {
    std::vector<double> reps;
    for (std::size_t r = 0; r < kExportReps; ++r) {
      const auto x0 = Clock::now();
      const std::string text = radloc::obs::prometheus_text(*rig->registry);
      reps.push_back(1e3 * seconds_between(x0, Clock::now()));
    }
    out.export_ms = median(reps);
  }

  // Capture the session whose current incarnation saw the most sweeps: its
  // feed is regenerated from the stream snapshot taken when it opened.
  std::size_t pick = 0;
  for (std::size_t k = 1; k < spec.sessions; ++k) {
    if (tenants[k].start_sweep < tenants[pick].start_sweep) pick = k;
  }
  const Tenant& t = tenants[pick];
  Rng stream = t.noise_at_open;
  for (std::size_t sweep = t.start_sweep + 1; sweep <= opt.units; ++sweep) {
    out.feed.batches.push_back(make_sweep(sim, stream, spec.dwell));
  }
  out.feed.estimate_after = t.estimate_after;
  out.replay_seed = t.open_seed;
  out.managed = snapshot(mgr.localizer(rig->ids[pick]));
  out.managed.final_estimate = mgr.estimate(rig->ids[pick]);
  return out;
}

}  // namespace

void run_serve(const Options& opt, RunRecord& rec, Layers& layers) {
  const ServeSpec spec = spec_for(opt.workload);
  PassResult base = serve_pass(spec, opt, opt.threads, nullptr, /*timed_setup=*/true);

  const Scenario world = make_world();
  const Replay replayed = replay(world, spec.cfg.localizer, base.replay_seed, base.feed);
  base.rec.checks["serial_replay_identical"] = same_state(base.managed, replayed.state);

  if (opt.trace) {
    SpanLog spans;
    const PassResult traced = serve_pass(spec, opt, opt.threads, &spans, false);
    spans.write_jsonl(opt.spans_out);
    const PassResult single = serve_pass(spec, opt, 1, nullptr, false);
    const auto& c = traced.rec.counts;
    layers["service.ingest_ns"] = 1e3 * spans.mean_us_per_item("ingest");
    layers["service.drain_ms"] = 1e-3 * spans.mean_us_per_item("drain_all");
    layers["service.stats_us"] = spans.mean_us_per_item("stats");
    layers["service.lost_readings"] = static_cast<double>(c.at("lost"));
    layers["service.failed_drains"] = static_cast<double>(c.at("failed_drains"));
    layers["service.restarts"] = static_cast<double>(c.at("restarts"));
    layers["adaptive.budget_mean"] = traced.budget_mean;
    layers["concurrency.tasks"] = static_cast<double>(traced.pool_stats.tasks_executed);
    layers["concurrency.steals"] = static_cast<double>(traced.pool_stats.steals);
    layers["concurrency.scaling"] =
        base.readings_per_sec /
        (static_cast<double>(opt.threads) * single.readings_per_sec);
    layers["obs.trace_overhead"] = base.readings_per_sec / traced.readings_per_sec - 1.0;
    layers["obs.export_ms"] = spec.registry
                                  ? base.export_ms
                                  : probe_export_ms(world, spec.cfg, spec.sessions, opt.seed);
    // The passes run the same seeded work, so their counts must agree.
    base.rec.checks["traced_counts_repeat"] = traced.rec.counts == base.rec.counts &&
                                              single.rec.counts == base.rec.counts;
    probe_layers(world, spec.cfg.localizer, base.replay_seed, base.feed, replayed, layers);
    layers["eval.trial_s"] = time_one_trial(world, spec.cfg.localizer, opt.seed);
  }
  rec = std::move(base.rec);
}

}  // namespace perfbench
