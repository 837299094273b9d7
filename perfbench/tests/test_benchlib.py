"""Tests of the benchmark's own Python code and of BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchlib  # noqa: E402


def rust_table(name):
    """(name, unit) rows of a metric table in src/report.rs."""
    with open(os.path.join(benchlib.HERE, "src", "report.rs")) as f:
        src = f.read()
    body = src[src.index("pub const %s" % name):]
    body = body[:body.index("];")]
    return re.findall(r'\("([^"]+)", "([^"]+)"\)', body)


class Quartiles(unittest.TestCase):
    def test_known_inputs(self):
        # statistics.quantiles' default (exclusive) method on 1..10:
        # positions (n+1)/4 = 2.75, 5.5 and 8.25.
        self.assertEqual(benchlib.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(benchlib.quartiles([4, 1, 3, 2]), (1.25, 2.5, 3.75))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchlib.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(benchlib.spread([10.0] * 10), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchlib.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(benchlib.worse_by(100, 110, "higher"), -0.10)


class Verdicts(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_improved_needs_nine_wins_and_more_than_iqr(self):
        change = [v - 10 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1),
                         ("improved", 1.0))
        # Wins every pair by a hair: inside the parent's own spread.
        change = [v - 0.1 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1)[0],
                         "unchanged")

    def test_eight_wins_is_not_improved(self):
        change = [v - 10 for v in self.parent[:8]] + [v + 1 for v in self.parent[8:]]
        v, won = benchlib.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(won, 0.8)
        self.assertEqual(v, "unchanged")

    def test_regressed_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1)[0],
                         "regressed")
        self.assertEqual(benchlib.verdict(self.parent, change, "higher", 0.1)[0],
                         "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        self.assertEqual(benchlib.verdict(noisy, noisy, "lower", 0.1)[0], "unresolved")
        # ...unless every change run beats every parent run.
        change = [10] * 10
        self.assertEqual(benchlib.verdict(noisy, change, "lower", 0.1)[0], "improved")


class SpecAgreesWithProgram(unittest.TestCase):
    spec = benchlib.load_spec()

    def test_every_printed_metric_is_declared_and_back(self):
        for key, table in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
            printed = dict(rust_table(table))
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(printed, declared, key)

    def test_spec_shape(self):
        self.assertEqual(sorted(self.spec), ["command", "end_to_end", "paths", "per_layer",
                                             "run_seconds", "workloads"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["info", "sessions"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_check_result_catches_mismatches(self):
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                   for m in self.spec["end_to_end"]}
        good = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        self.assertEqual(benchlib.check_result(good, self.spec, False), [])
        bad = dict(good, metrics=dict(metrics, extra={"value": 1, "unit": "s"}))
        self.assertTrue(benchlib.check_result(bad, self.spec, False))
        wrong_unit = dict(metrics, setup_s={"value": 1.0, "unit": "ms"})
        self.assertTrue(benchlib.check_result(dict(good, metrics=wrong_unit),
                                              self.spec, False))
        self.assertTrue(benchlib.check_result(good, self.spec, True))


if __name__ == "__main__":
    unittest.main()
