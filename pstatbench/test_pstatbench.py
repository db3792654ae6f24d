#!/usr/bin/env python3
"""Self-tests of the pstat benchmark's own helpers.

    python3 pstatbench/test_pstatbench.py

Checks BENCHMARK.json against the benchmark contract, the result
validation of run.py (metric names, units, finiteness, filling of
unreached layers), and runs the harness's own self-test (percentile and
sample-count selection, and every output check fed a corrupted result).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def spec():
    with open(run.SPEC_PATH) as f:
        return json.load(f)


def result(metrics, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": metrics}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_meets_the_contract(self):
        self.assertEqual(run.spec_problems(spec()), [])

    def test_command_stays_inside_paths(self):
        s = spec()
        for arg in s["command"][1:]:
            self.assertFalse(arg.startswith("/") or ".." in arg)
            self.assertTrue(any(arg.startswith(p + "/") for p in s["paths"]))

    def test_bad_names_and_units_are_refused(self):
        for name in ("", "-lead", "x" * 65, "sp ace", "a/b"):
            s = spec()
            s["per_layer"][0]["name"] = name
            self.assertTrue(run.spec_problems(s), name)
        s = spec()
        s["per_layer"][0]["unit"] = "m s"
        self.assertTrue(run.spec_problems(s))
        s = spec()
        s["per_layer"][1]["name"] = s["per_layer"][0]["name"]
        self.assertTrue(run.spec_problems(s))

    def test_setup_s_keeps_the_largest_bound(self):
        s = spec()
        s["end_to_end"][1]["bound"] = 0.25
        s["end_to_end"][0]["bound"] = 0.2
        self.assertTrue(run.spec_problems(s))


class ResultTest(unittest.TestCase):
    def end_to_end(self):
        return {m["name"]: {"value": 1.5, "unit": m["unit"]}
                for m in spec()["end_to_end"]}

    def test_complete_result_passes(self):
        out = run.complete_result(result(self.end_to_end()), spec(), 0)
        self.assertEqual(list(out["metrics"]),
                         [m["name"] for m in spec()["end_to_end"]])

    def test_missing_end_to_end_metric_is_refused(self):
        metrics = self.end_to_end()
        del metrics["setup_s"]
        with self.assertRaises(run.BenchError):
            run.complete_result(result(metrics), spec(), 0)

    def test_undeclared_wrong_unit_or_infinite_is_refused(self):
        for change in (lambda m: m.update(bogus={"value": 1, "unit": "s"}),
                       lambda m: m["p50_ms"].update(unit="s"),
                       lambda m: m["p50_ms"].update(value=float("inf")),
                       lambda m: m["p50_ms"].update(value=None)):
            metrics = self.end_to_end()
            change(metrics)
            with self.assertRaises(run.BenchError):
                run.complete_result(result(metrics), spec(), 0)

    def test_unreached_layers_print_as_zero(self):
        out = run.complete_result(
            result({"hmm.cells": {"value": 7, "unit": "count"}}), spec(), 1)
        self.assertEqual(len(out["metrics"]), len(spec()["per_layer"]))
        self.assertEqual(out["metrics"]["hmm.cells"]["value"], 7)
        self.assertEqual(out["metrics"]["io.open_ms"]["value"], 0.0)

    def test_failed_operations_are_kept(self):
        out = run.complete_result(result(self.end_to_end(), failed=3),
                                  spec(), 0)
        self.assertEqual(out["failed"], 3)
        self.assertFalse(out["correct"])


class HarnessTest(unittest.TestCase):
    def test_harness_self_test(self):
        proc = subprocess.run([run.build(), "--self-test"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
