// Benchmark harness: drives one workload through the library's public API
// and prints one JSON object of raw measurements (samples, counts, checks)
// on stdout. perfbench/run.py turns it into the benchmark's metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "radloc/radloc.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deterministic 64-bit mix of a seed and two indices (per-session and
/// per-incarnation localizer seeds, per-session noise streams).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

[[nodiscard]] double median(std::vector<double> v);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t units = 0;    ///< sweeps (serve_*) or trials (paper_trials)
  bool trace = false;
  std::size_t threads = 2;  ///< pool size of the workload
  std::string spans_out;    ///< where the traced run writes its spans
};

/// Minimal JSON object writer (numbers are printed with full precision).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& array(const std::string& key, const std::vector<double>& v);
  Json& object(const std::string& key, const Json& v);
  [[nodiscard]] std::string text() const;

 private:
  void key(const std::string& k);
  std::string body_;
};

/// One span recorded by the traced run around a public library call. Spans
/// stay in memory until the run ends; `items` is the number of calls or
/// readings the span covers (an ingest phase spans one call per reading).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double start_us = 0.0;     ///< since the log was created
  double end_us = 0.0;
  std::uint64_t items = 1;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  /// Records a finished span and returns its id.
  std::uint64_t add(const std::string& name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0, std::uint64_t items = 1);
  /// Mean duration per item of every span called `name`, in microseconds
  /// (0 when there is none).
  [[nodiscard]] double mean_us_per_item(const std::string& name) const;
  /// Writes one JSON line per span.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Accuracy at evaluation points, with the paper's 40-unit matching gate.
struct Accuracy {
  double err_sum = 0.0;
  std::uint64_t matched = 0;
  std::uint64_t false_pos = 0;
  std::uint64_t false_neg = 0;
  std::uint64_t truth = 0;  ///< true sources summed over evaluation points

  void add(const radloc::MatchResult& m);
  void merge(const Accuracy& o);
  [[nodiscard]] Json json() const;
};

/// What one workload run hands to run.py. Readings (serve_*) or trials
/// (paper_trials) are the offered operations.
struct RunRecord {
  std::vector<double> setup_s;
  std::vector<double> sweep_ms;
  std::vector<double> estimate_ms;
  /// Per sweep (serve_*) or per wave of trials (paper_trials), in order:
  /// wall time spent in library calls, and readings applied in it.
  std::vector<double> step_busy_s;
  std::vector<double> step_readings;
  double busy_s = 0.0;  ///< sum of step_busy_s
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, bool> checks;
  Accuracy accuracy;
  Json extra;  ///< workload-specific report fields
};

/// Per-layer metrics of a traced run, keyed by metric name.
using Layers = std::map<std::string, double>;

// Process-level facts for the provenance line.
[[nodiscard]] Json provenance(const Options& opt);
[[nodiscard]] double peak_rss_mb();

// Workloads (serve.cpp, trials.cpp). Each fills `rec`; with opt.trace it
// also fills `layers`.
void run_serve(const Options& opt, RunRecord& rec, Layers& layers);
void run_trials(const Options& opt, RunRecord& rec, Layers& layers);

// ---- layer probes (layers.cpp) ----

/// A replayable feed: the batches one localizer received, in order, with
/// the batch indices after which estimate() was called.
struct Feed {
  std::vector<std::vector<radloc::Measurement>> batches;
  std::vector<std::size_t> estimate_after;
};

/// End state of a localizer: its particle cloud and final estimate.
struct ReplayResult {
  std::vector<radloc::Point2> positions;
  std::vector<double> strengths;
  std::vector<double> weights;
  std::uint64_t iterations = 0;
  std::vector<radloc::SourceEstimate> final_estimate;
  bool threw = false;  ///< a batch threw (the same batch must throw in the original)
};

/// A serial replay of a feed: the state it ends in, the localizer that holds
/// that state, and what its try_process_all calls took.
struct Replay {
  ReplayResult state;
  std::unique_ptr<radloc::MultiSourceLocalizer> loc;
  double process_s = 0.0;      ///< try_process_all time over the batches that did not throw
  std::uint64_t readings = 0;  ///< readings of those batches
  std::size_t batches = 0;     ///< how many there were
  double budget_sum = 0.0;     ///< particle count after each of them, summed
};

/// Replays `feed` serially through a fresh MultiSourceLocalizer built from
/// `cfg` and `seed`, batch by batch, calling estimate() where the original
/// did, and stopping at a batch that throws.
Replay replay(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
              std::uint64_t seed, const Feed& feed);

/// Per-layer probes on the replay of `feed` from `seed`: core, filter, geom,
/// simd, meanshift, adaptive and sensornet.
void probe_layers(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                  std::uint64_t seed, const Feed& feed, const Replay& replayed, Layers& layers);

/// Service and obs metrics for a workload without service traffic: one
/// session behind a SessionManager with a metrics registry, fed `feed`
/// sweep by sweep.
void probe_service(const radloc::Scenario& scenario, const radloc::LocalizerConfig& cfg,
                   std::uint64_t seed, const Feed& feed, Layers& layers);

/// Milliseconds to render the registry of `sessions` freshly opened sessions.
[[nodiscard]] double probe_export_ms(const radloc::Scenario& scenario,
                                     const radloc::SessionConfig& cfg, std::size_t sessions,
                                     std::uint64_t seed);

/// Times one run_experiment trial at one thread on the workload's world.
[[nodiscard]] double time_one_trial(const radloc::Scenario& scenario,
                                    const radloc::LocalizerConfig& cfg, std::uint64_t seed);

/// True when the replayed state equals the managed one bit for bit.
[[nodiscard]] bool same_state(const ReplayResult& a, const ReplayResult& b);

/// Snapshot of a filter's particle cloud in the ReplayResult shape.
[[nodiscard]] ReplayResult snapshot(const radloc::MultiSourceLocalizer& loc);

}  // namespace perfbench
