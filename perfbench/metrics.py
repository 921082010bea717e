"""Turns the harness's raw measurements into the benchmark's metrics.

Pure functions only, so that the rules they enforce are unit-tested
(test_metrics.py): the percentile support rule, failure accounting and the
rejection of missing or non-finite metrics.
"""

import math

# End-to-end metrics every workload prints: name -> (unit, better).
END_TO_END = {
    "readings_per_sec": ("1/s", "higher"),
    "sweep_p50_ms": ("ms", "lower"),
    "sweep_p75_ms": ("ms", "lower"),
    "estimate_p50_ms": ("ms", "lower"),
    "estimate_p75_ms": ("ms", "lower"),
    "loc_error": ("units", "lower"),
    "miss_rate": ("1", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "service.ingest_ns": "ns",
    "service.drain_ms": "ms",
    "service.stats_us": "us",
    "service.lost_readings": "count",
    "service.failed_drains": "count",
    "service.restarts": "count",
    "service.failed_share": "1",
    "core.process_us": "us",
    "core.detect_ms": "ms",
    "filter.process_us": "us",
    "filter.subset_mean": "count",
    "filter.resample_rate": "1",
    "filter.generations_per_reading": "1",
    "filter.fused_len": "count",
    "filter.ess_fraction": "1",
    "geom.rebuild_us": "us",
    "geom.query_us": "us",
    "geom.rebuild_share": "1",
    "simd.rates_ns": "ns",
    "simd.poisson_ns": "ns",
    "simd.fused_ns": "ns",
    "meanshift.estimate_ms": "ms",
    "meanshift.modes": "count",
    "adaptive.budget_mean": "count",
    "adaptive.controller_runs": "count",
    "adaptive.resizes": "count",
    "adaptive.ess_alarms": "count",
    "concurrency.tasks": "count",
    "concurrency.steals": "count",
    "concurrency.scaling": "1",
    "sensornet.validate_ns": "ns",
    "sensornet.out_of_order_share": "1",
    "eval.trial_s": "s",
    "obs.trace_overhead": "1",
    "obs.export_ms": "ms",
}

# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
# Timings are taken per block of consecutive samples and the run reports the
# median over blocks, so a host stall that covers less than half of a run
# does not move them. Blocks hold at least MIN_BLOCK samples (enough for a
# p75 with 10 beyond it); runs are cut into about BLOCKS of them.
MIN_BLOCK = 40
BLOCKS = 10
# The tail percentile. p90 of a two-thread sweep or estimate swung by up to
# 39% between sets of runs on a shared 4-vCPU host, p75 by about half that.
TAIL = 0.75


class MetricError(ValueError):
    """A metric could not be computed or failed validation."""


def median(values):
    v = sorted(values)
    if not v:
        raise MetricError("median of no samples")
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def percentile(samples, q, min_beyond=MIN_SAMPLES_BEYOND):
    """Nearest-rank percentile (0 < q < 1). Refuses when fewer than
    `min_beyond` samples lie beyond it, so a tail figure is never read off
    a handful of samples. Returns (value, samples_beyond)."""
    n = len(samples)
    rank = math.ceil(q * n)
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise MetricError(
            f"p{round(100 * q)} of {n} samples has {max(beyond, 0)} beyond it; "
            f"{min_beyond} needed")
    return sorted(samples)[rank - 1], beyond


def split_blocks(values, min_size, blocks=BLOCKS):
    """Consecutive blocks of at least `min_size` values, about `blocks` of
    them; the remainder joins the last block."""
    size = max(min_size, len(values) // blocks)
    count = len(values) // size
    if count == 0:
        raise MetricError(f"{len(values)} samples cannot fill a block of {size}")
    out = [values[i * size:(i + 1) * size] for i in range(count)]
    out[-1] = values[(count - 1) * size:]
    return out


def block_percentile(samples, q):
    """Median over blocks of each block's percentile (support-checked per
    block). Returns (value, blocks, smallest number of samples beyond)."""
    per_block = [percentile(b, q) for b in split_blocks(samples, MIN_BLOCK)]
    return (median([v for v, _ in per_block]), len(per_block),
            min(beyond for _, beyond in per_block))


def block_rate(readings, busy_s):
    """Median over blocks of steps of readings / busy seconds."""
    rates = [sum(r) / sum(b) for r, b in zip(split_blocks(readings, 1),
                                             split_blocks(busy_s, 1))]
    return median(rates)


def failure_accounting(counts):
    """Failed operations against offered ones, with the conservation checks.

    Serve workloads offer readings: a reading fails when ingest rejects it,
    when the drain that held it rejects it, or when it is lost (taken off
    the queue by a drain that threw). offered = applied + failed + queued
    must hold, and the lost readings must be exactly the readings of the
    drains the supervisor saw fail. paper_trials offers trials.
    Returns a dict; raises MetricError when an identity does not hold.
    """
    offered = counts["offered"]
    if "failed_trials" in counts:
        failed = counts["failed_trials"]
        if counts["applied"] + failed != offered:
            raise MetricError(
                f"trials: offered {offered} != done {counts['applied']} + failed {failed}")
        queued = 0
    else:
        failed = counts["ingest_rejects"] + counts["drain_rejects"] + counts["lost"]
        queued = counts["queued"]
        if counts["applied"] + failed + queued != offered:
            raise MetricError(
                f"readings: offered {offered} != applied {counts['applied']} + "
                f"failed {failed} + queued {queued}")
        if counts["lost"] != counts["throwing_drain_readings"]:
            raise MetricError(
                f"lost readings {counts['lost']} != readings of failed drains "
                f"{counts['throwing_drain_readings']}")
        if counts["restarts"] != counts["failed_drains"]:
            raise MetricError("every failed session must be restarted once")
    if offered < 1:
        raise MetricError("nothing was offered")
    return {"attempted": offered, "failed": failed, "queued": queued,
            "failed_share": failed / offered}


def end_to_end(raw):
    """The end-to-end metrics of one run, from the harness's JSON. Samples
    and steps arrive in the order they happened."""
    acc = raw["accuracy"]
    if sum(raw["step_busy_s"]) <= 0 or acc["matched"] == 0 or acc["truth"] == 0:
        raise MetricError("run did no measurable work")
    values = {
        "readings_per_sec": block_rate(raw["step_readings"], raw["step_busy_s"]),
        "sweep_p50_ms": block_percentile(raw["sweep_ms"], 0.50)[0],
        "sweep_p75_ms": block_percentile(raw["sweep_ms"], TAIL)[0],
        "estimate_p50_ms": block_percentile(raw["estimate_ms"], 0.50)[0],
        "estimate_p75_ms": block_percentile(raw["estimate_ms"], TAIL)[0],
        "loc_error": acc["err_sum"] / acc["matched"],
        "miss_rate": (acc["false_pos"] + acc["false_neg"]) / acc["truth"],
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return values


def validate(values, spec, positive=False):
    """Checks that `values` holds every metric of `spec` (a name -> unit map,
    or name -> (unit, better)) as a finite number, positive when asked.
    Returns the JSON-ready {name: {"value", "unit"}} map in spec order."""
    out = {}
    for name, unit in spec.items():
        if isinstance(unit, tuple):
            unit = unit[0]
        if name not in values:
            raise MetricError(f"metric {name} is missing")
        v = values[name]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise MetricError(f"metric {name} is not a finite number: {v!r}")
        if positive and v <= 0:
            raise MetricError(f"metric {name} must be positive: {v!r}")
        out[name] = {"value": v, "unit": unit}
    return out
