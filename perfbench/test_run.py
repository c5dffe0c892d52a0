#!/usr/bin/env python3
"""Tests of the benchmark's own logic. Run from the repository root:

    python3 perfbench/test_run.py

The tests in PrintedNames and ExactCounts build the driver (as run.py
does, under .bench_build/) and run the fewest ops a run may measure.
"""

import contextlib
import functools
import io
import json
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()


def fake_raw(op_ms, traced=None, failed=None, answers=None):
    n = len(op_ms)
    return {
        "op_ms": op_ms,
        "op_traced": traced or [0] * n,
        "op_failed": failed or [0] * n,
        "op_answers": answers or [1] * n,
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_mb": 42.0,
    }


class Percentiles(unittest.TestCase):
    def test_known_samples(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile(samples, 100), 100)
        self.assertEqual(run.percentile([7], 90), 7)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(run.percentile([10, 20, 30, 40, 50, 60, 70, 80, 90, 1000], 90),
                         90)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_rule(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertEqual(run.samples_beyond(109, 90), 10)
        self.assertEqual(run.samples_beyond(110, 90), 11)
        self.assertEqual(run.samples_beyond(20, 50), 10)
        # The driver's 100-op minimum meets the rule.
        samples = list(range(100))
        p = run.percentile(samples, run.TAIL_PERCENTILE)
        self.assertEqual(sum(1 for s in samples if s > p),
                         run.samples_beyond(100, run.TAIL_PERCENTILE))
        self.assertGreaterEqual(run.samples_beyond(100, run.TAIL_PERCENTILE),
                                run.MIN_TAIL_SAMPLES)


class Failures(unittest.TestCase):
    def test_count(self):
        self.assertEqual(run.count_failures([0, 1, 0, 1, 1]), (5, 3))
        self.assertEqual(run.count_failures([0, 0]), (2, 0))

    def test_failed_ops_counted_in_every_op(self):
        raw = fake_raw([10.0, 20.0, 30.0, 40.0], traced=[0, 1, 0, 1],
                       failed=[0, 1, 1, 0])
        _, extra = run.end_to_end(raw)
        # Traced ops are checked too: 2 of 4 attempted ops failed.
        self.assertEqual(extra["ops_failed_frac"], 0.5)
        self.assertEqual(extra["samples"], 2)

    def test_end_to_end_values(self):
        raw = fake_raw([100.0, 300.0], answers=[2, 2])
        values, _ = run.end_to_end(raw)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["op_ms_p50"], 100.0)
        self.assertEqual(values["op_ms_p90"], 300.0)
        self.assertAlmostEqual(values["ops_per_s"], 5.0)
        self.assertAlmostEqual(values["queries_per_s"], 10.0)


@functools.lru_cache(maxsize=None)
def quick_run(workload, trace, repeat=0):
    """run.py's output for a run of the fewest ops the driver measures;
    `repeat` only tells apart runs that are otherwise the same."""
    args = mock.Mock(workload=workload, seed=3, seconds=0.01, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.run_one(args, ROOT)
    return status, out.getvalue().strip().splitlines()


class PrintedNames(unittest.TestCase):
    """The metric names run.py prints are exactly BENCHMARK.json's."""

    def metrics(self, trace):
        status, lines = quick_run("serve-mixed", trace)
        self.assertEqual(status, 0)
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        return last["metrics"]

    def test_end_to_end_names(self):
        spec = run.load_spec(ROOT)
        metrics = self.metrics(0)
        self.assertEqual(list(metrics), [m["name"] for m in spec["end_to_end"]])
        for m in spec["end_to_end"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_per_layer_names(self):
        spec = run.load_spec(ROOT)
        metrics = self.metrics(1)
        self.assertEqual(list(metrics), [m["name"] for m in spec["per_layer"]])


class ExactCounts(unittest.TestCase):
    """The simulated counts repeat exactly for a seed: across runs, and
    between traced and untraced runs."""

    def counts(self, trace, repeat=0):
        status, lines = quick_run("serve-mixed", trace, repeat)
        self.assertEqual(status, 0)
        found = [l for l in lines if l.startswith("counts ")]
        self.assertEqual(len(found), 1)
        return found[0]

    def test_counts_repeat(self):
        first = self.counts(0)
        self.assertEqual(self.counts(0, repeat=1), first)
        self.assertEqual(self.counts(1), first)
        spec = run.load_spec(ROOT)
        names = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual(set(json.loads(first[len("counts "):])), names)


if __name__ == "__main__":
    unittest.main()
