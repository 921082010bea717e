#include "radloc/service/session_manager.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace radloc {

namespace {

using Clock = std::chrono::steady_clock;

double microseconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Registry instruments are optional (null without a MetricsRegistry); these
/// keep the mirroring sites one-liners. A zero-delta bump is skipped so an
/// idle counter costs nothing.
void bump(obs::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr && n != 0) c->add(n);
}

void publish(obs::Gauge* g, double v) {
  if (g != nullptr) g->set(v);
}

}  // namespace

struct SessionManager::Session {
  Session(const Environment& env, std::vector<Sensor> sensors, SessionConfig config,
          std::uint64_t seed, ThreadPool* pool)
      : cfg(config),
        localizer(env, std::move(sensors), config.localizer, seed, pool),
        validator(localizer.filter().sensors().size()),
        current_budget(localizer.filter().size()) {}

  SessionConfig cfg;
  MultiSourceLocalizer localizer;

  /// Registry mirrors of the per-session tallies; every pointer is null when
  /// the manager has no MetricsRegistry. The mu-guarded fields below stay
  /// authoritative (SessionStats snapshots read THEM) — the instruments are
  /// export-side copies: ingest-side counters add at the tally site, drain
  /// -side counters publish advance-deltas of the localizer's cumulative
  /// counters (guarded by drain_mu via the prev_* trackers).
  struct Instruments {
    obs::Counter* ingested = nullptr;
    obs::Counter* processed = nullptr;
    obs::Counter* applied = nullptr;
    obs::Counter* rejected_malformed = nullptr;
    obs::Counter* rejected_full = nullptr;
    obs::Counter* dropped_oldest = nullptr;
    std::array<obs::Counter*, kReadingFaultCount> faults{};  ///< [kNone] unused
    obs::Counter* drains = nullptr;
    obs::Counter* fused_groups = nullptr;
    obs::Counter* fused_readings = nullptr;
    obs::Counter* resamples_performed = nullptr;
    obs::Counter* resamples_skipped = nullptr;
    obs::Counter* generation_bumps = nullptr;
    obs::Counter* budget_runs = nullptr;
    obs::Counter* budget_grow = nullptr;
    obs::Counter* budget_shrink = nullptr;
    obs::Counter* budget_ess_alarms = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* ess_fraction = nullptr;
    obs::Gauge* particle_budget = nullptr;
  };
  Instruments ins;

  /// Cumulative per-reading drain-latency histogram backing the p50/p99 in
  /// SessionStats. Points at the registry-owned instrument when the manager
  /// has a registry, else at owned_latency — never null after open().
  obs::Histogram* latency_hist = nullptr;
  std::unique_ptr<obs::Histogram> owned_latency;

  /// Stage tracer for this session's pipeline spans. Only touched under
  /// drain_mu (drains and estimates), satisfying the single-threaded tracer
  /// contract; with no TraceSink the localizer keeps a null tracer and every
  /// span site is a single pointer compare.
  obs::StageTracer tracer;

  /// Queue + counters + latency histogram. Held only for O(1) operations so
  /// ingest stays cheap while a drain is in flight.
  mutable std::mutex mu;
  MeasurementValidator validator;  ///< ingest-time tallies (guarded by mu)
  std::deque<SessionReading> queue;
  std::size_t ingested = 0;
  std::size_t processed = 0;
  std::size_t applied = 0;
  std::size_t rejected_full = 0;
  std::size_t dropped_oldest = 0;
  // Budget telemetry snapshotted at the end of each drain (guarded by mu).
  std::size_t current_budget = 0;
  double ess_fraction = 1.0;
  // Fused-update telemetry, same snapshot discipline.
  double fused_batch_len = 0.0;

  /// Serializes drains (and estimates) of this session, so one session's
  /// readings never apply concurrently or out of queue order. Distinct from
  /// `mu` so a long drain never blocks ingests.
  std::mutex drain_mu;
  // Drain scratch, reused across drains (guarded by drain_mu).
  std::vector<SessionReading> backlog;
  std::vector<Measurement> batch;
  std::vector<double> batch_latency_us;
  // Advance-delta trackers for the drain-side counter mirrors: the filter
  // and budget counters are cumulative, the registry wants increments.
  std::uint64_t prev_fused_groups = 0;
  std::uint64_t prev_fused_readings = 0;
  std::uint64_t prev_resamples_performed = 0;
  std::uint64_t prev_resamples_skipped = 0;
  std::uint64_t prev_generation = 0;
  std::uint64_t prev_budget_runs = 0;
  std::uint64_t prev_budget_grow = 0;
  std::uint64_t prev_budget_shrink = 0;
  std::uint64_t prev_budget_alarms = 0;
};

SessionManager::SessionManager(ThreadPool& pool, ServiceObservability obs)
    : pool_(&pool), metrics_(obs.metrics), trace_(obs.trace) {
  if (metrics_ == nullptr) return;
  // Pull gauges: the pool and session-count numbers are cheap thread-safe
  // reads, so sampling them at export time beats mirroring every enqueue.
  // Lock order registry -> (pool mu | manager mu_); nothing acquires the
  // registry mutex while holding either, so the callbacks cannot deadlock.
  metrics_->callback_gauge("radloc_sessions_open", {},
                           [this] { return static_cast<double>(num_sessions()); });
  metrics_->callback_gauge("radloc_pool_queue_depth", {}, [p = pool_] {
    return static_cast<double>(p->stats().queue_depth);
  });
  metrics_->callback_gauge("radloc_pool_tasks_executed", {}, [p = pool_] {
    return static_cast<double>(p->stats().tasks_executed);
  });
  metrics_->callback_gauge("radloc_pool_steals", {}, [p = pool_] {
    return static_cast<double>(p->stats().steals);
  });
}

SessionManager::SessionId SessionManager::open(const Environment& env,
                                               std::vector<Sensor> sensors, SessionConfig cfg,
                                               std::uint64_t seed) {
  if (cfg.queue_capacity == 0) {
    throw std::invalid_argument("session queue capacity must be at least 1");
  }
  // The id is allocated up front (ids are never reused, so an open that
  // throws later just skips one) because the instruments need it for labels
  // — and they must register BEFORE mu_ is retaken: registration takes the
  // registry mutex, which the sessions-open pull gauge holds while it takes
  // mu_, so registering under mu_ would invert that order.
  SessionId id = 0;
  {
    const std::lock_guard lock(mu_);
    id = next_id_++;
  }
  auto session = std::make_shared<Session>(env, std::move(sensors), cfg, seed, pool_);
  if (metrics_ != nullptr) {
    const obs::Labels sl{{"session", std::to_string(id)}};
    auto& ins = session->ins;
    ins.ingested = &metrics_->counter("radloc_session_readings_ingested_total", sl);
    ins.processed = &metrics_->counter("radloc_session_readings_processed_total", sl);
    ins.applied = &metrics_->counter("radloc_session_readings_applied_total", sl);
    ins.rejected_malformed = &metrics_->counter("radloc_session_rejected_malformed_total", sl);
    ins.rejected_full = &metrics_->counter("radloc_session_rejected_full_total", sl);
    ins.dropped_oldest = &metrics_->counter("radloc_session_dropped_oldest_total", sl);
    for (std::size_t f = 1; f < kReadingFaultCount; ++f) {
      obs::Labels fl = sl;
      fl.emplace_back("fault", to_string(static_cast<ReadingFault>(f)));
      ins.faults[f] = &metrics_->counter("radloc_session_ingest_faults_total", std::move(fl));
    }
    ins.drains = &metrics_->counter("radloc_session_drains_total", sl);
    ins.fused_groups = &metrics_->counter("radloc_filter_fused_groups_total", sl);
    ins.fused_readings = &metrics_->counter("radloc_filter_fused_readings_total", sl);
    ins.resamples_performed = &metrics_->counter("radloc_filter_resamples_performed_total", sl);
    ins.resamples_skipped = &metrics_->counter("radloc_filter_resamples_skipped_total", sl);
    ins.generation_bumps = &metrics_->counter("radloc_filter_generation_bumps_total", sl);
    ins.budget_runs = &metrics_->counter("radloc_budget_runs_total", sl);
    ins.budget_grow = &metrics_->counter("radloc_budget_grow_total", sl);
    ins.budget_shrink = &metrics_->counter("radloc_budget_shrink_total", sl);
    ins.budget_ess_alarms = &metrics_->counter("radloc_budget_ess_alarms_total", sl);
    ins.queue_depth = &metrics_->gauge("radloc_session_queue_depth", sl);
    ins.ess_fraction = &metrics_->gauge("radloc_filter_ess_fraction", sl);
    ins.particle_budget = &metrics_->gauge("radloc_filter_particle_budget", sl);
    session->latency_hist = &metrics_->histogram("radloc_session_drain_latency_us", sl);
  } else {
    session->owned_latency = std::make_unique<obs::Histogram>();
    session->latency_hist = session->owned_latency.get();
  }
  if (trace_ != nullptr) {
    session->tracer = obs::StageTracer(trace_, id);
    session->localizer.set_stage_tracer(&session->tracer);
  }
  const std::lock_guard lock(mu_);
  sessions_.emplace(id, std::move(session));
  return id;
}

bool SessionManager::close(SessionId id) {
  std::shared_ptr<Session> victim;
  {
    const std::lock_guard lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    victim = std::move(it->second);
    sessions_.erase(it);
  }
  // `victim` destructs here (or when the last concurrent borrower drops its
  // reference — shared_ptr keeps racing ingests/stats on a just-closed
  // session memory-safe; their writes simply die with the session). Its
  // registry instruments stay registered: closed-session counters keep
  // their final values in exports, which is what monotonic counters owe a
  // scrape pipeline.
  return true;
}

std::size_t SessionManager::num_sessions() const {
  const std::lock_guard lock(mu_);
  return sessions_.size();
}

std::shared_ptr<SessionManager::Session> SessionManager::find(SessionId id) const {
  const std::lock_guard lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("unknown session id " + std::to_string(id));
  }
  return it->second;
}

IngestStatus SessionManager::ingest(SessionId id, const SessionReading& reading) {
  const std::shared_ptr<Session> s = find(id);
  const std::lock_guard lock(s->mu);
  const ReadingFault fault = s->validator.admit_timed(reading.m, reading.timestamp);
  if (fault != ReadingFault::kNone) {
    bump(s->ins.rejected_malformed);
    bump(s->ins.faults[static_cast<std::size_t>(fault)]);
    return IngestStatus::kRejectedMalformed;
  }
  if (s->queue.size() >= s->cfg.queue_capacity) {
    if (s->cfg.backpressure == BackpressurePolicy::kRejectNewest) {
      ++s->rejected_full;
      bump(s->ins.rejected_full);
      return IngestStatus::kRejectedFull;
    }
    s->queue.pop_front();
    ++s->dropped_oldest;
    s->queue.push_back(reading);
    ++s->ingested;
    bump(s->ins.dropped_oldest);
    bump(s->ins.ingested);
    publish(s->ins.queue_depth, static_cast<double>(s->queue.size()));
    return IngestStatus::kQueuedDroppedOldest;
  }
  s->queue.push_back(reading);
  ++s->ingested;
  bump(s->ins.ingested);
  publish(s->ins.queue_depth, static_cast<double>(s->queue.size()));
  return IngestStatus::kQueued;
}

std::size_t SessionManager::drain_session(Session& s) {
  // One drainer per session at a time: within a session, readings apply
  // strictly in queue order on a single thread — the determinism contract.
  const std::lock_guard drain_lock(s.drain_mu);
  // Service-layer envelope span: the per-reading stage spans the localizer
  // emits all nest (in time) inside this one drain.
  const obs::ScopedSpan span(&s.tracer, obs::Stage::kDrain);
  {
    const std::lock_guard lock(s.mu);
    s.backlog.assign(s.queue.begin(), s.queue.end());
    s.queue.clear();
  }
  if (s.backlog.empty()) return 0;

  if (s.cfg.drain_order == DrainOrder::kTimestamp) {
    // Safe comparator: ingest validation already rejected NaN timestamps
    // (a NaN here would break strict weak ordering — UB for sort).
    std::stable_sort(s.backlog.begin(), s.backlog.end(),
                     [](const SessionReading& a, const SessionReading& b) {
                       return a.timestamp < b.timestamp;
                     });
  }

  s.batch.clear();
  for (const SessionReading& r : s.backlog) s.batch.push_back(r.m);

  // Per-reading latency from callback deltas: one clock read per reading,
  // charged to the reading that just finished (validation + filter work).
  s.batch_latency_us.clear();
  Clock::time_point prev = Clock::now();
  const BatchIngestResult result =
      s.localizer.try_process_all(s.batch, [&s, &prev](std::size_t, ReadingFault) {
        const Clock::time_point now = Clock::now();
        s.batch_latency_us.push_back(microseconds_between(prev, now));
        prev = now;
      });

  const std::size_t drained = s.batch.size();
  // Still under drain_mu — safe to read the localizer here, not in stats().
  const FusionParticleFilter& filter = s.localizer.filter();
  const std::size_t budget = filter.size();
  const double ess = filter.effective_sample_size();
  const std::uint64_t fgroups = filter.fused_groups();
  const std::uint64_t freadings = filter.fused_readings();

  // Drain-side counter mirrors: advance-deltas of the cumulative localizer
  // counters since the previous drain (prev_* guarded by drain_mu).
  bump(s.ins.drains);
  bump(s.ins.fused_groups, fgroups - s.prev_fused_groups);
  s.prev_fused_groups = fgroups;
  bump(s.ins.fused_readings, freadings - s.prev_fused_readings);
  s.prev_fused_readings = freadings;
  bump(s.ins.resamples_performed, filter.resamples_performed() - s.prev_resamples_performed);
  s.prev_resamples_performed = filter.resamples_performed();
  bump(s.ins.resamples_skipped, filter.resamples_skipped() - s.prev_resamples_skipped);
  s.prev_resamples_skipped = filter.resamples_skipped();
  bump(s.ins.generation_bumps, filter.particle_generation() - s.prev_generation);
  s.prev_generation = filter.particle_generation();
  const BudgetDiagnostics bd = s.localizer.budget_diagnostics();
  bump(s.ins.budget_runs, bd.controller_runs - s.prev_budget_runs);
  s.prev_budget_runs = bd.controller_runs;
  bump(s.ins.budget_grow, bd.grow_events - s.prev_budget_grow);
  s.prev_budget_grow = bd.grow_events;
  bump(s.ins.budget_shrink, bd.shrink_events - s.prev_budget_shrink);
  s.prev_budget_shrink = bd.shrink_events;
  bump(s.ins.budget_ess_alarms, bd.ess_alarm_events - s.prev_budget_alarms);
  s.prev_budget_alarms = bd.ess_alarm_events;

  {
    const std::lock_guard lock(s.mu);
    s.processed += drained;
    s.applied += result.processed;
    s.current_budget = budget;
    s.ess_fraction = budget > 0 ? ess / static_cast<double>(budget) : 0.0;
    s.fused_batch_len =
        fgroups > 0 ? static_cast<double>(freadings) / static_cast<double>(fgroups) : 0.0;
    // Latency lands in the histogram inside the SAME critical section as
    // the processed tally, pinning latency_samples == processed for every
    // stats() snapshot (the observe itself is atomic and allocation-free).
    for (const double us : s.batch_latency_us) s.latency_hist->observe(us);
    bump(s.ins.processed, drained);
    bump(s.ins.applied, result.processed);
    publish(s.ins.queue_depth, static_cast<double>(s.queue.size()));
    publish(s.ins.ess_fraction, s.ess_fraction);
    publish(s.ins.particle_budget, static_cast<double>(budget));
  }
  return drained;
}

std::size_t SessionManager::drain(SessionId id) { return drain_session(*find(id)); }

std::size_t SessionManager::drain_all() {
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    const std::lock_guard lock(mu_);
    snapshot.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) snapshot.push_back(s);
  }
  std::atomic<std::size_t> total{0};
  {
    // group.wait() (via ~TaskGroup on the throw path) lets every drain
    // retire before the first exception propagates out of drain_all().
    ThreadPool::TaskGroup group(*pool_);
    for (const std::shared_ptr<Session>& s : snapshot) {
      // Skip empty sessions without scheduling: idle tenants are the common
      // case in a many-session server, and a task per idle session is pure
      // queue pressure.
      bool has_backlog = false;
      {
        const std::lock_guard lock(s->mu);
        has_backlog = !s->queue.empty();
      }
      if (!has_backlog) continue;
      group.run([this, s, &total] { total.fetch_add(drain_session(*s)); });
    }
    group.wait();
  }
  return total.load();
}

SessionStats SessionManager::stats(SessionId id) const {
  const std::shared_ptr<Session> s = find(id);
  SessionStats out;
  const std::lock_guard lock(s->mu);
  out.queue_depth = s->queue.size();
  out.ingested = s->ingested;
  out.processed = s->processed;
  out.applied = s->applied;
  out.rejected_full = s->rejected_full;
  out.dropped_oldest = s->dropped_oldest;
  out.rejected_malformed = s->validator.rejected();
  for (std::size_t f = 0; f < kReadingFaultCount; ++f) {
    out.faults[f] = s->validator.count(static_cast<ReadingFault>(f));
  }
  // Every reading the service applied is exactly one filter iteration, so
  // the counter can come from the mu-guarded tally — reading
  // localizer.iterations() here would race an in-flight drain.
  out.filter_iterations = s->applied;
  out.current_budget = s->current_budget;
  out.ess_fraction = s->ess_fraction;
  out.fused_batch_len = s->fused_batch_len;
  // The histogram is written under this same mutex (drain_session), so the
  // sample count is exactly `processed` in every snapshot.
  out.latency_samples = static_cast<std::size_t>(s->latency_hist->count());
  out.p50_latency_us = s->latency_hist->quantile(0.50);
  out.p99_latency_us = s->latency_hist->quantile(0.99);
  return out;
}

std::vector<SourceEstimate> SessionManager::estimate(SessionId id) {
  const std::shared_ptr<Session> s = find(id);
  const std::lock_guard drain_lock(s->drain_mu);
  return s->localizer.estimate();
}

const MultiSourceLocalizer& SessionManager::localizer(SessionId id) const {
  return find(id)->localizer;
}

const char* to_string(IngestStatus status) {
  switch (status) {
    case IngestStatus::kQueued: return "queued";
    case IngestStatus::kQueuedDroppedOldest: return "queued (dropped oldest)";
    case IngestStatus::kRejectedMalformed: return "rejected (malformed)";
    case IngestStatus::kRejectedFull: return "rejected (queue full)";
  }
  return "unknown";
}

}  // namespace radloc
