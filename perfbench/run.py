#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, checks it
and prints the metrics.

    python3 perfbench/run.py --workload serve_burst --seed 7 --seconds 20 --trace 0

Run from the repository root. The harness is built with CMake from the
library's own sources into .bench_build/ (the first run builds; later runs
reuse it). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Lines before it
are a provenance line and a human-readable report. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
HARNESS = BUILD_DIR / "perfbench_harness"
HARNESS_DEADLINE_S = 170  # after the build, which is a no-op once the tree is built

# Work per second of --seconds, calibrated on a 4-core AVX2 host so that a
# run measures about that long. The amount of work depends only on
# --seconds, never on how fast the host is, so counts and accuracy repeat
# exactly for a given seed.
WORKLOADS = {
    # sweeps/s; whole 30-sweep session trials
    "serve_paper": {"rate": 60.0, "multiple": 30, "minimum": 120, "simd": "scalar"},
    "serve_burst": {"rate": 200.0, "multiple": 64, "minimum": 128, "simd": "auto"},
    # trials/s at 2 threads; whole waves of up to 4 trials
    "paper_trials": {"rate": 0.8, "multiple": 4, "minimum": 4, "simd": "scalar"},
}


def units_for(workload, seconds):
    w = WORKLOADS[workload]
    units = max(w["minimum"], seconds * w["rate"])
    return int(math.ceil(units / w["multiple"]) * w["multiple"])


def threads_for(workload):
    """Serve workloads: two busy threads (the caller plus one pool worker).
    paper_trials: half the host's cores, at most 4. Filling every core of a
    small shared host made run-to-run spreads two to four times wider."""
    cores = os.cpu_count() or 1
    if workload == "paper_trials":
        return max(1, min(4, cores // 2))
    return min(2, cores)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def run_harness(args, threads, units, timeout_s):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RADLOC_")}
    env["RADLOC_SIMD"] = args.simd or WORKLOADS[args.workload]["simd"]
    spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--units", str(units), "--threads", str(threads),
           "--trace", str(args.trace), "--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise SystemExit("harness timed out")
    if proc.returncode != 0:
        raise SystemExit(f"harness failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("harness printed nothing")
    return json.loads(lines[-1])


def report(args, raw, acct, values, load1):
    prov = raw["provenance"]
    print(f"provenance workload={args.workload} seed={args.seed} units={raw['units']} "
          f"nproc={os.cpu_count()} threads={prov['threads']} "
          f"simd_detected={prov['simd_detected']} simd_active={prov['simd_active']} "
          f"compiler=\"{prov['compiler']}\" build_type={prov['build_type']} "
          f"load1={load1:.2f}")
    for name in ("sweep_ms", "estimate_ms"):
        _, blocks, beyond = metrics.block_percentile(raw[name], metrics.TAIL)
        print(f"samples {name}: {len(raw[name])} in {blocks} blocks "
              f"(p{round(100 * metrics.TAIL)} has at least {beyond} beyond it in each)")
    c = raw["counts"]
    print("failures: " + " ".join(f"{k}={v}" for k, v in sorted(c.items())) +
          f" failed_share={acct['failed_share']:.6g}")
    extra = raw.get("extra", {})
    if extra.get("first_failure_sweep"):
        print(f"first failure: sweep {extra['first_failure_sweep']} session "
              f"{extra['first_failure_session']}: {extra['first_failure_message']}")
    if "trials_per_sec" in extra:
        print(f"trials_per_sec = {extra['trials_per_sec']:.6g} 1/s")
    print("checks: " + " ".join(f"{k}={v}" for k, v in sorted(raw["checks"].items())))
    for name, v in values.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--simd", choices=("scalar", "sse2", "avx2", "auto"),
                    help="override the workload's SIMD tier (RADLOC_SIMD)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    load1 = os.getloadavg()[0]
    build()
    threads = threads_for(args.workload)
    # A traced run makes three passes (untraced, traced, and a one-thread
    # baseline for the serve workloads), each of half the work.
    units = units_for(args.workload, args.seconds / 2 if args.trace else args.seconds)
    raw = run_harness(args, threads, units, HARNESS_DEADLINE_S)

    correct = all(raw["checks"].values()) and bool(raw["checks"])
    try:
        acct = metrics.failure_accounting(raw["counts"])
    except metrics.MetricError as e:
        print(f"accounting check failed: {e}", file=sys.stderr)
        correct = False
        acct = {"attempted": max(1, raw["counts"].get("offered", 1)),
                "failed": raw["counts"].get("offered", 0), "failed_share": 1.0}
    try:
        if args.trace:
            layers = dict(raw["layers"])
            layers["service.failed_share"] = acct["failed_share"]
            values = metrics.validate(layers, metrics.PER_LAYER)
        else:
            values = metrics.validate(metrics.end_to_end(raw), metrics.END_TO_END,
                                      positive=True)
    except metrics.MetricError as e:
        raise SystemExit(f"refusing to report: {e}")

    report(args, raw, acct, values, load1)
    print(json.dumps({"correct": correct, "attempted": acct["attempted"],
                      "failed": acct["failed"], "metrics": values}))


if __name__ == "__main__":
    main()
