// perfbench_harness --workload <serve_paper|serve_burst|paper_trials>
//                   --seed <n> --units <n> [--threads <n>] [--trace 0|1]
//                   [--spans-out <path>]
//
// Runs a fixed amount of work (sweeps or trials) and prints one JSON object
// of raw measurements on stdout. perfbench/run.py builds and invokes it.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why << "\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--units") opt.units = std::stoul(v);
      else if (a == "--threads") opt.threads = std::stoul(v);
      else if (a == "--trace") opt.trace = v == "1";
      else if (a == "--spans-out") opt.spans_out = v;
      else usage("unknown flag " + a);
    } catch (const std::exception&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (opt.workload != "serve_paper" && opt.workload != "serve_burst" &&
      opt.workload != "paper_trials") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.units == 0 || opt.threads == 0) usage("--units and --threads must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::RunRecord rec;
  perfbench::Layers layers;
  try {
    if (opt.workload == "paper_trials") {
      perfbench::run_trials(opt, rec, layers);
    } else {
      perfbench::run_serve(opt, rec, layers);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }

  perfbench::Json counts, checks, layer_json;
  for (const auto& [k, v] : rec.counts) counts.integer(k, v);
  for (const auto& [k, v] : rec.checks) checks.boolean(k, v);
  for (const auto& [k, v] : layers) layer_json.num(k, v);
  std::cout << perfbench::Json()
                   .str("workload", opt.workload)
                   .integer("seed", opt.seed)
                   .integer("units", opt.units)
                   .object("provenance", perfbench::provenance(opt))
                   .array("setup_s", rec.setup_s)
                   .array("sweep_ms", rec.sweep_ms)
                   .array("estimate_ms", rec.estimate_ms)
                   .array("step_busy_s", rec.step_busy_s)
                   .array("step_readings", rec.step_readings)
                   .object("counts", counts)
                   .object("checks", checks)
                   .object("accuracy", rec.accuracy.json())
                   .num("peak_rss_mb", perfbench::peak_rss_mb())
                   .object("extra", rec.extra)
                   .object("layers", layer_json)
                   .text()
            << std::endl;
  return 0;
}
