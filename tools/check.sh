#!/usr/bin/env bash
# radloc correctness gauntlet: tier-1 tests plus the sanitizer suites.
#
#   tools/check.sh            # release + asan + tsan (full ctest each)
#   tools/check.sh release    # any subset of: release asan tsan benchsmoke serve obs
#   RADLOC_CHECK_JOBS=8 tools/check.sh
#
# The release stage's ctest includes the `benchsmoke` label (every bench
# binary in --smoke mode); pass `benchsmoke` as a stage to run only those.
# The benchsmoke stage runs the label twice — once pinned to the portable
# scalar SIMD tier (RADLOC_SIMD=scalar), once with the knob unset so the
# dispatcher picks the host's best tier — then diffs the fresh bench JSON
# against the committed baselines with tools/bench_compare.py
# (informational: smoke numbers are noisy, so regressions never fail the
# gauntlet here; run bench_compare.py --strict by hand on full runs).
#
# The `serve` stage smoke-tests the streaming service end to end: radloc_serve
# in all three ingest modes (synthetic, trace replay, stdin line protocol)
# plus bench_session_multiplex --smoke diffed against the committed
# BENCH_session_multiplex.json. The diff is informational by default; pass
# --strict to make flagged regressions fail the stage.
#
# The `obs` stage smoke-tests the observability layer (DESIGN.md §5.11):
# radloc_serve with --metrics-out/--trace-out, python3-validating that the
# Prometheus exposition and the trace JSONL parse, then
# bench_telemetry_overhead --smoke diffed against the committed baseline.
#
# Each stage is a CMake preset (see CMakePresets.json); build trees land in
# build/<preset>. The script stops at the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${RADLOC_CHECK_JOBS:-$(nproc)}"
strict=""
stages=()
for arg in "$@"; do
  case "$arg" in
    --strict) strict="--strict" ;;
    *) stages+=("$arg") ;;
  esac
done
if [ ${#stages[@]} -eq 0 ]; then
  stages=(release asan tsan)
fi

for stage in "${stages[@]}"; do
  # benchsmoke shares the release build tree; its test preset filters to
  # the bench --smoke entries.
  build_preset="$stage"
  case "$stage" in
    release|asan|tsan) ;;
    benchsmoke|serve|obs) build_preset="release" ;;
    *) echo "check.sh: unknown stage '$stage' (want release|asan|tsan|benchsmoke|serve|obs)" >&2; exit 2 ;;
  esac
  echo "==> [$stage] configure"
  cmake --preset "$build_preset" >/dev/null
  echo "==> [$stage] build"
  cmake --build --preset "$build_preset" -j "$jobs"
  if [ "$stage" = serve ]; then
    tree="build/$build_preset"
    echo "==> [$stage] synthetic ingest smoke"
    "$tree/tools/radloc_serve" --sessions 3 --synthetic 4 --particles 400 \
        --dump-every 2 --seed 5
    echo "==> [$stage] trace replay smoke"
    "$tree/tools/radloc_sim" --scenario A --steps 3 --trials 1 \
        --trace "$tree/serve_smoke_trace.csv" >/dev/null
    "$tree/tools/radloc_serve" --replay "$tree/serve_smoke_trace.csv" --scenario A \
        --sessions 2 --particles 400 --dump-every 0
    echo "==> [$stage] line-protocol smoke"
    printf 'ingest 1 0.0 0 12.5\ningest 1 0.0 1 -5\ndrain\nstats 1\nestimate 1\nquit\n' | \
        "$tree/tools/radloc_serve" --sessions 1 --stdin --particles 300
    echo "==> [$stage] bench_session_multiplex --smoke + compare vs baseline"
    (cd "$tree/bench" && ./bench_session_multiplex --smoke)
    if [ -n "$strict" ]; then
      python3 tools/bench_compare.py session_multiplex --fresh-dir "$tree/bench" --strict
    else
      python3 tools/bench_compare.py session_multiplex --fresh-dir "$tree/bench" || true
    fi
    echo "==> [$stage] OK"
    continue
  fi
  if [ "$stage" = obs ]; then
    tree="build/$build_preset"
    echo "==> [$stage] radloc_serve with metrics + trace dumps"
    "$tree/tools/radloc_serve" --sessions 2 --synthetic 4 --particles 400 \
        --dump-every 2 --seed 5 \
        --metrics-out "$tree/obs_smoke_metrics.prom" \
        --trace-out "$tree/obs_smoke_trace.jsonl" --trace-sample 1 >/dev/null
    echo "==> [$stage] validate Prometheus exposition + trace JSONL"
    python3 - "$tree/obs_smoke_metrics.prom" "$tree/obs_smoke_trace.jsonl" <<'PYEOF'
import json, re, sys
metrics, trace = sys.argv[1], sys.argv[2]
line_re = re.compile(r'^(# TYPE \w+ (counter|gauge|histogram)|\w+(\{[^}]*\})? \S+)$')
names = set()
with open(metrics) as f:
    for line in f:
        assert line_re.match(line.rstrip("\n")), f"bad exposition line: {line!r}"
        if not line.startswith("#"):
            names.add(line.split("{")[0].split(" ")[0])
for required in ("radloc_session_readings_processed_total",
                 "radloc_session_drain_latency_us_bucket",
                 "radloc_pool_queue_depth", "radloc_sessions_open"):
    assert required in names, f"missing metric: {required}"
spans = 0
with open(trace) as f:
    for line in f:
        event = json.loads(line)
        assert event["type"] == "span" and "stage" in event, event
        spans += 1
assert spans > 0, "no spans recorded"
print(f"ok: {len(names)} metric series, {spans} spans")
PYEOF
    echo "==> [$stage] bench_telemetry_overhead --smoke + compare vs baseline"
    (cd "$tree/bench" && ./bench_telemetry_overhead --smoke)
    if [ -n "$strict" ]; then
      python3 tools/bench_compare.py telemetry_overhead --fresh-dir "$tree/bench" --strict
    else
      python3 tools/bench_compare.py telemetry_overhead --fresh-dir "$tree/bench" || true
    fi
    echo "==> [$stage] OK"
    continue
  fi
  echo "==> [$stage] ctest"
  if [ "$stage" = benchsmoke ]; then
    # Both SIMD dispatch paths: forced-scalar (the bit-identical default
    # tier) and env-unset (host's detected tier, e.g. AVX2 on x86).
    echo "==> [$stage] pass 1/2: RADLOC_SIMD=scalar"
    RADLOC_SIMD=scalar ctest --preset "$stage" -j "$jobs"
    echo "==> [$stage] pass 2/2: RADLOC_SIMD unset (host tier)"
    env -u RADLOC_SIMD ctest --preset "$stage" -j "$jobs"
    echo "==> [$stage] bench_compare vs committed baselines (informational)"
    python3 tools/bench_compare.py --fresh-dir "build/$build_preset/bench" || true
  else
    ctest --preset "$stage" -j "$jobs"
  fi
  echo "==> [$stage] OK"
done

echo "All stages passed: ${stages[*]}"
