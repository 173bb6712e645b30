#!/usr/bin/env python3
"""Tests of ledger/compare.py on canned run outputs.

Run with: python3 -m unittest discover -s ledger -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import compare

BENCH = {"end_to_end": [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def run_text(workload, seed, **metrics):
    meta = {"ledger": {"workload": workload, "seed": seed}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    return json.dumps(meta) + "\n" + json.dumps(result) + "\n"


def write_runs(directory, name, runs):
    with open(os.path.join(directory, name), "w") as f:
        f.write("build noise that is not JSON\n")
        for workload, seed, metrics in runs:
            f.write(run_text(workload, seed, **metrics))


def verdicts(base, new):
    rows = compare.compare(base, new, BENCH)
    return {(r[0], r[1]): r[-1] for r in rows}


def runs(values, name="latency_ms", workload="w"):
    return {workload: [(seed, {name: v}) for seed, v in enumerate(values)]}


class CompareTest(unittest.TestCase):
    def test_reads_runs_from_directory(self):
        with tempfile.TemporaryDirectory() as d:
            write_runs(d, "a.txt", [("w", 1, {"latency_ms": 5.0}),
                                    ("v", 1, {"latency_ms": 7.0})])
            write_runs(d, "b.txt", [("w", 2, {"latency_ms": 6.0})])
            got = compare.read_runs(d)
        self.assertEqual(sorted(got), ["v", "w"])
        self.assertEqual(got["w"], [(1, {"latency_ms": 5.0}),
                                    (2, {"latency_ms": 6.0})])

    def test_unchanged_within_bound(self):
        base = runs([10.0, 10.1, 9.9, 10.0, 10.05])
        new = runs([10.2, 10.1, 10.3, 10.0, 10.2])
        self.assertEqual(verdicts(base, new)[("w", "latency_ms")], "unchanged")

    def test_regressed_beyond_bound(self):
        base = runs([10.0, 10.1, 9.9, 10.0, 10.05])
        new = runs([12.0, 12.1, 11.9, 12.2, 12.0])
        self.assertEqual(verdicts(base, new)[("w", "latency_ms")], "regressed")

    def test_improved_needs_nine_tenths_of_pairs(self):
        base = runs([10.0] * 10)
        self.assertEqual(
            verdicts(base, runs([8.0] * 9 + [11.0]))[("w", "latency_ms")],
            "improved")
        self.assertEqual(
            verdicts(base, runs([8.0] * 8 + [11.0] * 2))[("w", "latency_ms")],
            "unchanged")

    def test_higher_is_better(self):
        base = runs([100.0, 101.0, 99.0, 100.0], name="rate")
        new = runs([80.0, 81.0, 79.0, 80.0], name="rate")
        self.assertEqual(verdicts(base, new)[("w", "rate")], "regressed")
        self.assertEqual(verdicts(new, base)[("w", "rate")], "improved")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        base = runs([6.0, 10.0, 14.0, 8.0, 12.0])
        new = runs([10.5, 9.0, 13.0, 8.0, 12.5])
        self.assertEqual(verdicts(base, new)[("w", "latency_ms")],
                         "unresolved")

    def test_pairs_match_by_seed(self):
        base = [(1, 10.0), (2, 20.0)]
        new = [(2, 19.0), (1, 9.0)]
        self.assertEqual(compare.pair_up(base, new), [(10.0, 9.0),
                                                      (20.0, 19.0)])

    def test_missing_metric_is_reported(self):
        base = runs([10.0, 10.0])
        new = runs([10.0, 10.0], name="other")
        self.assertEqual(verdicts(base, new)[("w", "latency_ms")], "missing")


if __name__ == "__main__":
    unittest.main()
