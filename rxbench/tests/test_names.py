"""BENCHMARK.json against the benchmark binary and the output contract.

Run through `python3 rxbench/run.py --self-test`, which builds rxbench and
passes its path in RXBENCH_BINARY.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (rxbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = {"single_stream", "batched_throughput", "mixed_anytime",
             "toy_lone_requests"}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def binary_metrics():
    out = subprocess.run([os.environ["RXBENCH_BINARY"], "--list-metrics"],
                         capture_output=True, text=True, check=True).stdout
    got = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, unit = line.split()
        got[kind][name] = unit
    return got


class BenchmarkJsonTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(spec()), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end", "per_layer"})

    def test_names_and_units_follow_the_charset(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        for m in s["end_to_end"] + s["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_workloads_are_the_binary_workloads(self):
        self.assertEqual({w["name"] for w in spec()["workloads"]}, WORKLOADS)

    def test_bounds(self):
        e2e = {m["name"]: m for m in spec()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])

    def test_metric_names_agree_with_the_binary(self):
        s = spec()
        got = binary_metrics()
        for kind in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in s[kind]}
            self.assertEqual(got[kind], want, kind)

    def test_result_line_check(self):
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                   for m in spec()["end_to_end"]}
        good = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                           "metrics": metrics})
        self.assertEqual(run.check_result(good, 0), [])
        # The same names are not the traced run's names.
        self.assertNotEqual(run.check_result(good, 1), [])
        missing = dict(metrics)
        missing.pop("setup_s")
        bad = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                          "metrics": missing})
        self.assertNotEqual(run.check_result(bad, 0), [])
        self.assertNotEqual(run.check_result("not json", 0), [])


if __name__ == "__main__":
    unittest.main()
