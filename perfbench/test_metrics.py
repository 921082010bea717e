"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import metrics


def serve_counts(**over):
    counts = {"offered": 1000, "applied": 1000, "ingest_rejects": 0, "drain_rejects": 0,
              "lost": 0, "queued": 0, "throwing_drain_readings": 0, "failed_drains": 0,
              "restarts": 0, "drain_all_throws": 0}
    counts.update(over)
    return counts


def raw_run(**over):
    raw = {"units": 120, "peak_rss_mb": 15.0,
           "setup_s": [0.003, 0.001, 0.002],
           "sweep_ms": [float(i) for i in range(1, 201)],
           "estimate_ms": [float(i) / 10 for i in range(1, 101)],
           "step_busy_s": [0.5, 0.5, 0.5, 0.5],
           "step_readings": [250.0, 250.0, 250.0, 250.0],
           "counts": serve_counts(),
           "accuracy": {"err_sum": 30.0, "matched": 10, "false_pos": 1, "false_neg": 1,
                        "truth": 10}}
    raw.update(over)
    return raw


class PercentileSupport(unittest.TestCase):
    def test_nearest_rank_with_enough_samples_beyond(self):
        value, beyond = metrics.percentile(list(range(1, 101)), 0.90)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)

    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(metrics.MetricError):
            metrics.percentile(list(range(1, 100)), 0.90)  # 99 samples: 9 beyond

    def test_median_needs_twenty_samples(self):
        self.assertEqual(metrics.percentile(list(range(20)), 0.5)[1], 10)
        with self.assertRaises(metrics.MetricError):
            metrics.percentile(list(range(19)), 0.5)

    def test_empty_is_refused(self):
        with self.assertRaises(metrics.MetricError):
            metrics.percentile([], 0.5)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 3.0] * 40
        self.assertEqual(metrics.percentile(samples, 0.5),
                         metrics.percentile(sorted(samples), 0.5))


class Blocks(unittest.TestCase):
    def test_blocks_hold_at_least_the_minimum_and_keep_every_sample(self):
        blocks = metrics.split_blocks(list(range(250)), 100)
        self.assertEqual([len(b) for b in blocks], [100, 150])
        self.assertEqual(sum(blocks, []), list(range(250)))

    def test_about_ten_blocks_for_long_runs(self):
        self.assertEqual(len(metrics.split_blocks(list(range(4416)), 40)), 10)

    def test_block_percentile_ignores_a_stalled_block(self):
        steady = ([1.0] * 30 + [2.0] * 10) * 2
        stalled = [50.0] * 40
        value, blocks, beyond = metrics.block_percentile(steady + stalled, 0.75)
        self.assertEqual((value, blocks, beyond), (1.0, 3, 10))
        self.assertEqual(metrics.percentile(steady + stalled, 0.75)[0], 50.0)

    def test_block_percentile_refuses_blocks_without_support(self):
        self.assertEqual(metrics.block_percentile([1.0] * 40, 0.75)[2], 10)
        with self.assertRaises(metrics.MetricError):
            metrics.block_percentile([1.0] * 39, 0.75)
        with self.assertRaises(metrics.MetricError):
            metrics.block_percentile([1.0] * 99, 0.90)  # 40-sample blocks hold 4 beyond

    def test_block_rate_is_the_median_block_throughput(self):
        readings = [100.0] * 10
        busy = [1.0] * 9 + [10.0]  # one stalled step
        self.assertEqual(metrics.block_rate(readings, busy), 100.0)


class FailureAccounting(unittest.TestCase):
    def test_clean_run(self):
        acct = metrics.failure_accounting(serve_counts())
        self.assertEqual((acct["attempted"], acct["failed"], acct["failed_share"]), (1000, 0, 0.0))

    def test_lost_readings_and_restarts_count_as_failed(self):
        # Two drains threw, each taking a 36-reading backlog with it; both
        # sessions were restarted; 4 readings were refused at ingest.
        counts = serve_counts(applied=924, lost=72, throwing_drain_readings=72,
                              failed_drains=2, restarts=2, ingest_rejects=4)
        acct = metrics.failure_accounting(counts)
        self.assertEqual(acct["failed"], 76)
        self.assertAlmostEqual(acct["failed_share"], 0.076)

    def test_queued_readings_are_neither_applied_nor_failed(self):
        acct = metrics.failure_accounting(serve_counts(applied=990, queued=10))
        self.assertEqual((acct["failed"], acct["queued"]), (0, 10))

    def test_unaccounted_readings_are_an_error(self):
        with self.assertRaises(metrics.MetricError):
            metrics.failure_accounting(serve_counts(applied=999))

    def test_lost_must_match_the_failed_drains_backlog(self):
        counts = serve_counts(applied=964, lost=36, throwing_drain_readings=72,
                              failed_drains=2, restarts=2)
        with self.assertRaises(metrics.MetricError):
            metrics.failure_accounting(counts)

    def test_every_failed_session_is_restarted(self):
        counts = serve_counts(applied=964, lost=36, throwing_drain_readings=36,
                              failed_drains=1, restarts=0)
        with self.assertRaises(metrics.MetricError):
            metrics.failure_accounting(counts)

    def test_trials(self):
        acct = metrics.failure_accounting(
            {"offered": 8, "applied": 7, "failed_trials": 1, "readings_applied": 40950})
        self.assertEqual((acct["attempted"], acct["failed"]), (8, 1))
        with self.assertRaises(metrics.MetricError):
            metrics.failure_accounting(
                {"offered": 8, "applied": 8, "failed_trials": 1, "readings_applied": 1})


class EndToEnd(unittest.TestCase):
    def test_metrics_from_raw(self):
        v = metrics.end_to_end(raw_run())
        self.assertEqual(v["readings_per_sec"], 500.0)
        # five 40-sample blocks with p75 30, 70, 110, 150, 190
        self.assertEqual(v["sweep_p75_ms"], 110.0)
        # blocks 0.1..4.0 and 4.1..10.0, medians 2.0 and 7.0
        self.assertAlmostEqual(v["estimate_p50_ms"], 4.5)
        self.assertEqual(v["loc_error"], 3.0)
        self.assertEqual(v["miss_rate"], 0.2)
        self.assertEqual(v["setup_s"], 0.002)
        self.assertEqual(set(v), set(metrics.END_TO_END))

    def test_too_few_sweeps_is_refused(self):
        with self.assertRaises(metrics.MetricError):
            metrics.end_to_end(raw_run(sweep_ms=[1.0] * 39))


class Validation(unittest.TestCase):
    def test_missing_metric_is_rejected(self):
        values = metrics.end_to_end(raw_run())
        del values["loc_error"]
        with self.assertRaises(metrics.MetricError):
            metrics.validate(values, metrics.END_TO_END)

    def test_non_finite_metric_is_rejected(self):
        for bad in (math.nan, math.inf, None, "1.0", True):
            values = metrics.end_to_end(raw_run())
            values["sweep_p50_ms"] = bad
            with self.assertRaises(metrics.MetricError, msg=repr(bad)):
                metrics.validate(values, metrics.END_TO_END)

    def test_zero_end_to_end_metric_is_rejected(self):
        values = metrics.end_to_end(raw_run())
        values["miss_rate"] = 0.0
        with self.assertRaises(metrics.MetricError):
            metrics.validate(values, metrics.END_TO_END, positive=True)

    def test_per_layer_zero_is_allowed_and_units_attached(self):
        layers = {name: 0.0 for name in metrics.PER_LAYER}
        out = metrics.validate(layers, metrics.PER_LAYER)
        self.assertEqual(out["service.ingest_ns"], {"value": 0.0, "unit": "ns"})
        self.assertEqual(list(out), list(metrics.PER_LAYER))


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json must declare exactly the metrics the benchmark prints."""

    def setUp(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("BENCHMARK.json is not next to the benchmark")
        self.spec = json.loads(path.read_text())

    def test_end_to_end_names_units_and_direction(self):
        declared = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        self.assertEqual(declared, metrics.END_TO_END)

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, metrics.PER_LAYER)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        others = [b for name, b in bounds.items() if name != "setup_s"]
        self.assertGreater(bounds["setup_s"], max(others))


if __name__ == "__main__":
    unittest.main()
