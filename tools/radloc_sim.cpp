// radloc_sim — command-line scenario runner.
//
// Runs a paper scenario (or a custom source set) end to end: simulate
// measurements, localize online, print the per-step metrics, and
// optionally write the measurement trace (CSV) and per-step SVG snapshots.
//
//   radloc_sim --scenario A --strength 10 --steps 30 --seed 7
//   radloc_sim --scenario B --trials 3 --report csv
//   radloc_sim --scenario A3 --svg-prefix /tmp/frame --trace /tmp/run.csv
//
// Run with --help for the full flag list.
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "radloc/radloc.hpp"
#include "radloc/viz/svg.hpp"

namespace {

using namespace radloc;

struct Options {
  std::string scenario = "A";
  double strength = 10.0;
  double background = 5.0;
  bool obstacles = false;
  std::size_t steps = 30;
  std::size_t trials = 1;
  std::size_t threads = 1;
  std::optional<std::size_t> particles;
  std::uint64_t seed = 1;
  std::string delivery = "auto";  // auto | inorder | shuffled | latency
  double loss = 0.0;
  std::string report = "table";  // table | csv
  std::string trace_path;
  std::string svg_prefix;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "radloc_sim — multi-source radiation localization scenario runner\n\n"
      "  --scenario {A,A3,B,C}   paper scenario (default A)\n"
      "  --strength <uCi>        source strength for A/A3 (default 10)\n"
      "  --background <CPM>      per-sensor background (default 5)\n"
      "  --obstacles             enable the scenario's obstacles\n"
      "  --steps <n>             time steps (default 30)\n"
      "  --trials <n>            averaging trials (default 1)\n"
      "  --threads <n>           trial-level worker threads; results are\n"
      "                          bit-identical at any count (default 1, or\n"
      "                          the RADLOC_THREADS env var)\n"
      "  --particles <n>         override particle count\n"
      "  --seed <n>              RNG seed (default 1)\n"
      "  --delivery <kind>       auto|inorder|shuffled|latency (default auto)\n"
      "  --loss <frac>           measurement loss rate (default 0)\n"
      "  --report {table,csv}    output format (default table)\n"
      "  --trace <file>          save the trial-0 measurement trace as CSV\n"
      "  --svg-prefix <prefix>   save <prefix>_NN.svg snapshots (trial 0)\n"
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
    else if (a == "--scenario") opt.scenario = next(i);
    else if (a == "--strength") opt.strength = real(i);
    else if (a == "--background") opt.background = real(i);
    else if (a == "--obstacles") opt.obstacles = true;
    else if (a == "--steps") opt.steps = count(i);
    else if (a == "--trials") opt.trials = count(i);
    else if (a == "--threads") opt.threads = count(i);
    else if (a == "--particles") opt.particles = count(i);
    else if (a == "--seed") opt.seed = count(i);
    else if (a == "--delivery") opt.delivery = next(i);
    else if (a == "--loss") opt.loss = real(i);
    else if (a == "--report") opt.report = next(i);
    else if (a == "--trace") opt.trace_path = next(i);
    else if (a == "--svg-prefix") opt.svg_prefix = next(i);
    else {
      std::cerr << "unknown flag: " << a << "\n";
      usage(2);
    }
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

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Scenario scenario = build_scenario(opt);
  if (opt.particles) scenario.recommended_particles = *opt.particles;

  ExperimentOptions exp;
  exp.trials = opt.trials;
  exp.num_threads = opt.threads;
  exp.time_steps = opt.steps;
  exp.seed = opt.seed;
  exp.loss_rate = opt.loss;
  if (opt.delivery == "inorder") exp.delivery_override = DeliveryKind::kInOrder;
  else if (opt.delivery == "shuffled") exp.delivery_override = DeliveryKind::kShuffled;
  else if (opt.delivery == "latency") exp.delivery_override = DeliveryKind::kRandomLatency;
  else if (opt.delivery != "auto") {
    std::cerr << "unknown delivery kind: " << opt.delivery << "\n";
    return 2;
  }

  // Optional artifacts from a dedicated trial-0 style run.
  if (!opt.trace_path.empty() || !opt.svg_prefix.empty()) {
    MeasurementSimulator sim(scenario.env, scenario.sensors, scenario.sources);
    LocalizerConfig cfg;
    cfg.filter.num_particles = scenario.recommended_particles;
    cfg.filter.fusion_range = scenario.recommended_fusion_range;
    MultiSourceLocalizer loc(scenario.env, scenario.sensors, cfg, opt.seed);
    Rng noise(opt.seed ^ 0x5555);
    MeasurementTrace trace;
    for (std::size_t t = 0; t < opt.steps; ++t) {
      auto batch = sim.sample_time_step(noise);
      trace.record_step(batch);
      loc.process_all(batch);
      if (!opt.svg_prefix.empty()) {
        const auto estimates = loc.estimate();
        auto canvas = render_scene(scenario.env, scenario.sensors, scenario.sources,
                                   loc.filter().positions(), estimates);
        std::ostringstream name;
        name << opt.svg_prefix << '_' << (t < 10 ? "0" : "") << t << ".svg";
        canvas.save(name.str());
      }
    }
    if (!opt.trace_path.empty()) {
      trace.save_csv_file(opt.trace_path);
      std::cout << "trace written to " << opt.trace_path << " (" << trace.num_measurements()
                << " measurements)\n";
    }
    if (!opt.svg_prefix.empty()) {
      std::cout << "SVG snapshots written to " << opt.svg_prefix << "_NN.svg\n";
    }
  }

  const auto result = run_experiment(scenario, exp);
  const auto names = default_source_names(scenario.sources.size());
  if (opt.report == "csv") {
    write_time_series_csv(std::cout, result, names);
  } else {
    print_banner(std::cout, "scenario " + scenario.name + ": localization error / FP / FN");
    print_time_series(std::cout, result, names);
    std::cout << "late-window (last half) mean error: "
              << result.avg_error_all(opt.steps / 2, opt.steps)
              << "  FP: " << result.avg_false_positives(opt.steps / 2, opt.steps)
              << "  FN: " << result.avg_false_negatives(opt.steps / 2, opt.steps) << "\n";
  }
  return 0;
}
