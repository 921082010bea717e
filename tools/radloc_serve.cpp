// radloc_serve — streaming multi-session localization service driver.
//
// Front-end for the SessionManager (DESIGN.md §5.8): opens N independent
// surveillance-area sessions over one shared worker pool, feeds them an
// interleaved measurement stream, drains them as batched pool work, and
// periodically dumps per-session estimates plus telemetry.
//
// Ingest modes (pick one):
//   --synthetic <steps>   per-session simulated feeds from the scenario's
//                         sources (per-session noise seeds; default mode)
//   --replay <trace.csv>  replay a radloc_sim-recorded trace into every
//                         session (sensor indices must match --scenario)
//   --stdin               line protocol on standard input:
//                           ingest <session> <timestamp> <sensor> <cpm>
//                           drain | estimate <session> | stats <session> | quit
//
//   radloc_serve --sessions 8 --synthetic 20 --dump-every 10
//   radloc_sim --scenario A --steps 10 --trials 1 --trace t.csv
//   radloc_serve --replay t.csv --scenario A --sessions 4
//
// Run with --help for the full flag list.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "radloc/obs/export.hpp"
#include "cli_args.hpp"
#include "radloc/radloc.hpp"

namespace {

using namespace radloc;

struct Options {
  std::string scenario = "A";
  double strength = 10.0;
  double background = 5.0;
  bool obstacles = false;
  std::size_t sessions = 4;
  std::size_t synthetic_steps = 20;
  std::string replay_path;
  bool use_stdin = false;
  std::size_t dump_every = 10;  // 0 = only the final dump
  std::size_t threads = 1;
  std::optional<std::size_t> particles;
  std::size_t queue_capacity = 1024;
  bool drop_oldest = false;
  bool order_by_timestamp = false;
  bool adaptive = false;
  bool fused = false;
  std::uint64_t seed = 1;
  std::string metrics_out;  // Prometheus text dump path ("" = metrics off)
  std::string trace_out;    // stage-span JSONL path ("" = tracing off)
  std::uint64_t trace_sample = obs::TraceSink::kDefaultSampleInterval;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "radloc_serve — multi-session streaming localization service\n\n"
      "  --sessions <n>          concurrent sessions (default 4)\n"
      "  --synthetic <steps>     synthetic per-session feeds (default, 20 steps)\n"
      "  --replay <trace.csv>    replay a recorded trace into every session\n"
      "  --stdin                 line-protocol ingest from standard input\n"
      "  --scenario {A,A3,B,C}   sensor/source layout (default A)\n"
      "  --strength <uCi>        source strength for A/A3 (default 10)\n"
      "  --background <CPM>      per-sensor background (default 5)\n"
      "  --obstacles             enable the scenario's obstacles\n"
      "  --particles <n>         override per-session particle count\n"
      "  --adaptive              adaptive particle budget per session (KLD\n"
      "                          controller, min = particles/4, max = particles;\n"
      "                          watch the budget/ess stats columns)\n"
      "  --fused                 fuse consecutive same-sensor readings in each\n"
      "                          drain into one weight update (tolerance-\n"
      "                          pinned; watch the fuse stats column)\n"
      "  --queue-capacity <n>    per-session bounded ingest queue (default 1024)\n"
      "  --drop-oldest           backpressure evicts oldest instead of\n"
      "                          rejecting the newest reading\n"
      "  --order-by-timestamp    drain batches in timestamp order\n"
      "  --dump-every <k>        dump estimates every k steps (0 = final only)\n"
      "  --metrics-out <path>    rewrite a Prometheus text-format metrics dump\n"
      "                          at every dump point (enables the metrics\n"
      "                          registry; see DESIGN.md §5.11)\n"
      "  --trace-out <path>      append pipeline stage spans as JSONL at every\n"
      "                          dump point (enables stage tracing)\n"
      "  --trace-sample <n>      record every n-th stage span (default 16;\n"
      "                          0 disables sampling entirely)\n"
      "  --threads <n>           shared pool workers (default 1, or the\n"
      "                          RADLOC_THREADS env var)\n"
      "  --seed <n>              RNG seed (default 1)\n"
      "  --help\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
  if (const char* v = std::getenv("RADLOC_THREADS")) {
    const long parsed = std::strtol(v, nullptr, 10);
    if (parsed > 0) opt.threads = static_cast<std::size_t>(parsed);
  }
  auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      usage(2);
    }
    return argv[++i];
  };
  // Numeric flags: a value that is not entirely a number ends the run with
  // exit code 2, like an unknown flag.
  auto value_of = [&](int& i, auto parse) {
    const std::string flag = argv[i];
    const std::string text = next(i);
    const auto value = parse(text);
    if (!value) {
      std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
      usage(2);
    }
    return *value;
  };
  auto count = [&](int& i) { return value_of(i, cli::parse_count); };
  auto real = [&](int& i) { return value_of(i, cli::parse_real); };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--sessions") opt.sessions = count(i);
    else if (a == "--synthetic") opt.synthetic_steps = count(i);
    else if (a == "--replay") opt.replay_path = next(i);
    else if (a == "--stdin") opt.use_stdin = true;
    else if (a == "--scenario") opt.scenario = next(i);
    else if (a == "--strength") opt.strength = real(i);
    else if (a == "--background") opt.background = real(i);
    else if (a == "--obstacles") opt.obstacles = true;
    else if (a == "--particles") opt.particles = count(i);
    else if (a == "--queue-capacity") opt.queue_capacity = count(i);
    else if (a == "--adaptive") opt.adaptive = true;
    else if (a == "--fused") opt.fused = true;
    else if (a == "--drop-oldest") opt.drop_oldest = true;
    else if (a == "--order-by-timestamp") opt.order_by_timestamp = true;
    else if (a == "--dump-every") opt.dump_every = count(i);
    else if (a == "--metrics-out") opt.metrics_out = next(i);
    else if (a == "--trace-out") opt.trace_out = next(i);
    else if (a == "--trace-sample") opt.trace_sample = count(i);
    else if (a == "--threads") opt.threads = count(i);
    else if (a == "--seed") opt.seed = count(i);
    else {
      std::cerr << "unknown flag: " << a << "\n";
      usage(2);
    }
  }
  if (opt.use_stdin && !opt.replay_path.empty()) {
    std::cerr << "--stdin and --replay are mutually exclusive\n";
    usage(2);
  }
  if (opt.sessions == 0) {
    std::cerr << "--sessions must be at least 1\n";
    usage(2);
  }
  return opt;
}

Scenario build_scenario(const Options& opt) {
  if (opt.scenario == "A") return make_scenario_a(opt.strength, opt.background, opt.obstacles);
  if (opt.scenario == "A3") return make_scenario_a3(opt.strength, opt.background);
  if (opt.scenario == "B") return make_scenario_b(opt.background, opt.obstacles);
  if (opt.scenario == "C") return make_scenario_c(opt.background, opt.obstacles);
  std::cerr << "unknown scenario: " << opt.scenario << "\n";
  usage(2);
}

/// Observability outputs: the registry/sink the manager feeds, plus the
/// dump destinations. flush() is the periodic dump hook — called at every
/// estimate-dump point and once at exit. Metrics are a rewrite (scrape
/// semantics: the file is always one complete, current exposition); trace
/// spans are drained from the ring and appended (events are consumed, so
/// each flush writes only what arrived since the last one).
struct ObsOutputs {
  std::string metrics_path;
  std::string trace_path;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;

  void flush() const {
    if (metrics != nullptr && !metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::trunc);
      if (!out) {
        std::cerr << "warning: cannot write metrics to " << metrics_path << "\n";
      } else {
        obs::write_prometheus(*metrics, out);
      }
    }
    if (trace != nullptr && !trace_path.empty()) {
      const std::vector<obs::TraceEvent> events = trace->drain();
      if (events.empty()) return;
      std::ofstream out(trace_path, std::ios::app);
      if (!out) {
        std::cerr << "warning: cannot append trace to " << trace_path << "\n";
      } else {
        obs::write_trace_jsonl(events, out);
      }
    }
  }
};

void dump_estimates(SessionManager& mgr, const std::vector<SessionManager::SessionId>& ids,
                    const std::string& tag) {
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto estimates = mgr.estimate(ids[k]);
    std::cout << "[" << tag << "] session " << ids[k] << ": " << estimates.size()
              << " source(s)";
    for (const auto& e : estimates) {
      std::cout << "  (" << e.pos.x << ", " << e.pos.y << ") @ " << e.strength;
    }
    std::cout << "\n";
  }
}

void dump_stats(SessionManager& mgr, const std::vector<SessionManager::SessionId>& ids) {
  std::cout << "session  queued  ingested  processed  applied  malformed  full  dropped"
               "  p50_us  p99_us  budget  ess  fuse\n";
  for (const auto id : ids) {
    const SessionStats st = mgr.stats(id);
    std::cout << id << "  " << st.queue_depth << "  " << st.ingested << "  " << st.processed
              << "  " << st.applied << "  " << st.rejected_malformed << "  "
              << st.rejected_full << "  " << st.dropped_oldest << "  " << st.p50_latency_us
              << "  " << st.p99_latency_us << "  " << st.current_budget << "  "
              << st.ess_fraction << "  " << st.fused_batch_len << "\n";
  }
}

/// Feeds one time step of measurements into a session, tagging each reading
/// with the step index as its timestamp. Returns admitted count.
std::size_t ingest_step(SessionManager& mgr, SessionManager::SessionId id,
                        const std::vector<Measurement>& step, double timestamp) {
  std::size_t admitted = 0;
  for (const Measurement& m : step) {
    const IngestStatus status = mgr.ingest(id, SessionReading{timestamp, m});
    if (status == IngestStatus::kQueued || status == IngestStatus::kQueuedDroppedOldest) {
      ++admitted;
    }
  }
  return admitted;
}

int run_synthetic(const Options& opt, const Scenario& scenario, SessionManager& mgr,
                  const std::vector<SessionManager::SessionId>& ids, const ObsOutputs& obsout) {
  // One simulator + noise stream per session: independent tenants watching
  // the same scenario layout.
  std::vector<MeasurementSimulator> sims;
  std::vector<Rng> noise;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    sims.emplace_back(scenario.env, scenario.sensors, scenario.sources);
    noise.emplace_back(opt.seed ^ (0x9E3779B97F4A7C15ULL * (k + 1)));
  }
  for (std::size_t t = 0; t < opt.synthetic_steps; ++t) {
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ingest_step(mgr, ids[k], sims[k].sample_time_step(noise[k]), static_cast<double>(t));
    }
    mgr.drain_all();
    if (opt.dump_every != 0 && (t + 1) % opt.dump_every == 0) {
      dump_estimates(mgr, ids, "t=" + std::to_string(t + 1));
      obsout.flush();
    }
  }
  return 0;
}

int run_replay(const Options& opt, const MeasurementTrace& trace, SessionManager& mgr,
               const std::vector<SessionManager::SessionId>& ids, const ObsOutputs& obsout) {
  std::cout << "replaying " << trace.num_measurements() << " measurements over "
            << trace.num_steps() << " steps into " << ids.size() << " session(s)\n";
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    for (const auto id : ids) {
      ingest_step(mgr, id, trace.step(t), static_cast<double>(t));
    }
    mgr.drain_all();
    if (opt.dump_every != 0 && (t + 1) % opt.dump_every == 0) {
      dump_estimates(mgr, ids, "t=" + std::to_string(t + 1));
      obsout.flush();
    }
  }
  return 0;
}

/// Reads exactly the given fields from the rest of a protocol line; a
/// missing, malformed or leftover token fails the whole command.
template <typename... Fields>
bool read_fields(std::istream& is, Fields&... fields) {
  std::string extra;
  return (is >> ... >> fields) && !(is >> extra);
}

int run_stdin(SessionManager& mgr, const std::vector<SessionManager::SessionId>& ids,
              const ObsOutputs& obsout) {
  // Minimal line protocol; session ids are the ones printed at startup.
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    if (!(is >> cmd) || cmd.empty() || cmd[0] == '#') continue;
    try {
      if (cmd == "quit") break;
      if (cmd == "drain") {
        std::cout << "drained " << mgr.drain_all() << " reading(s)\n";
        obsout.flush();
      } else if (cmd == "ingest") {
        SessionManager::SessionId id = 0;
        SessionReading r;
        if (!read_fields(is, id, r.timestamp, r.m.sensor, r.m.cpm)) {
          std::cout << "error: usage: ingest <session> <timestamp> <sensor> <cpm>\n";
          continue;
        }
        std::cout << to_string(mgr.ingest(id, r)) << "\n";
      } else if (cmd == "estimate") {
        SessionManager::SessionId id = 0;
        if (!read_fields(is, id)) {
          std::cout << "error: usage: estimate <session>\n";
          continue;
        }
        dump_estimates(mgr, {id}, "estimate");
      } else if (cmd == "stats") {
        SessionManager::SessionId id = 0;
        if (!read_fields(is, id)) {
          std::cout << "error: usage: stats <session>\n";
          continue;
        }
        dump_stats(mgr, {id});
      } else {
        std::cout << "error: unknown command '" << cmd
                  << "' (ingest|drain|estimate|stats|quit)\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  (void)ids;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Scenario scenario = build_scenario(opt);
  // A trace that cannot be read ends the run before any session opens.
  MeasurementTrace trace;
  if (!opt.replay_path.empty()) {
    try {
      trace = MeasurementTrace::load_csv_file(opt.replay_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  SessionConfig cfg;
  cfg.localizer.filter.num_particles =
      opt.particles ? *opt.particles : scenario.recommended_particles;
  cfg.localizer.filter.fusion_range = scenario.recommended_fusion_range;
  if (opt.adaptive) {
    auto& f = cfg.localizer.filter;
    f.adaptive_budget = true;
    f.max_particles = f.num_particles;
    f.min_particles = std::max<std::size_t>(f.num_particles / 4, 50);
    f.ess_resample_threshold = 0.5;
  }
  cfg.localizer.filter.fused_batch_updates = opt.fused;
  cfg.queue_capacity = opt.queue_capacity;
  cfg.backpressure =
      opt.drop_oldest ? BackpressurePolicy::kDropOldest : BackpressurePolicy::kRejectNewest;
  cfg.drain_order = opt.order_by_timestamp ? DrainOrder::kTimestamp : DrainOrder::kArrival;

  ThreadPool pool(opt.threads, opt.threads);
  // Observability backends are created only when a dump path asks for them:
  // the default run carries a null handle and pays nothing (the manager
  // falls back to session-owned latency histograms for its stats).
  obs::MetricsRegistry registry;
  std::optional<obs::TraceSink> sink;
  if (!opt.trace_out.empty()) {
    sink.emplace(obs::TraceSink::kDefaultCapacity, opt.trace_sample);
  }
  ObsOutputs obsout;
  obsout.metrics_path = opt.metrics_out;
  obsout.trace_path = opt.trace_out;
  if (!opt.metrics_out.empty()) obsout.metrics = &registry;
  if (sink) obsout.trace = &*sink;
  SessionManager mgr(pool, ServiceObservability{obsout.metrics, obsout.trace});
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t k = 0; k < opt.sessions; ++k) {
    ids.push_back(mgr.open(scenario.env, scenario.sensors, cfg, opt.seed ^ (k * 7919)));
  }
  std::cout << "opened " << ids.size() << " session(s) [" << ids.front() << ".."
            << ids.back() << "] on scenario " << scenario.name << ", "
            << cfg.localizer.filter.num_particles << " particles each\n";

  int rc = 0;
  if (opt.use_stdin) {
    rc = run_stdin(mgr, ids, obsout);
  } else if (!opt.replay_path.empty()) {
    rc = run_replay(opt, trace, mgr, ids, obsout);
  } else {
    rc = run_synthetic(opt, scenario, mgr, ids, obsout);
  }
  mgr.drain_all();
  dump_estimates(mgr, ids, "final");
  dump_stats(mgr, ids);
  obsout.flush();
  return rc;
}
