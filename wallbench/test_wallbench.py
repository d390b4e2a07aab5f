#!/usr/bin/env python3
"""Tests of the wall-clock benchmark.

    python3 wallbench/test_wallbench.py

Builds the benchmark and its C++ unit tests (percentiles and the
sample-count rule, self time of nested spans, the Env decorator) into
$CARGO_TARGET_DIR/wallbench (default .bench_build), runs those, and checks
that the metric names the benchmark prints are exactly the ones
BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(OUT, "wallbench")
BINARY = os.path.join(BUILD, "wallbench")


def setUpModule():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "--target", "wallbench",
                    "wallbench_test", "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, env=None):
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        return subprocess.run(
            [BINARY, *args, "--dir", os.path.join(scratch, "d")],
            capture_output=True, text=True, env=env)


class UnitTests(unittest.TestCase):
    def test_cc_unit_tests_pass(self):
        done = subprocess.run([os.path.join(BUILD, "wallbench_test")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


class MetricNames(unittest.TestCase):
    def listed(self):
        out = subprocess.run([BINARY, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        rows = [line.split() for line in out.splitlines()]
        return rows

    def test_list_matches_benchmark_json(self):
        spec = declared()
        rows = self.listed()
        self.assertEqual(
            [(r[1], r[2]) for r in rows if r[0] == "end_to_end"],
            [(m["name"], m["unit"]) for m in spec["end_to_end"]])
        self.assertEqual(
            [(r[1], r[2]) for r in rows if r[0] == "per_layer"],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])
        self.assertEqual([r[1] for r in rows if r[0] == "workload"],
                         [w["name"] for w in spec["workloads"]])

    def test_printed_names_match_benchmark_json(self):
        spec = declared()
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = run_bench("--workload", "ckpt_cou_zipf", "--seed", "7",
                             "--seconds", "1", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(
                {n: v["unit"] for n, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[key]})
            # Every run states the settings it measured.
            self.assertIn("flush_policy:", done.stdout)
            self.assertIn("recovery_threads=", done.stdout)


class Refusals(unittest.TestCase):
    def test_pinned_variables_refused(self):
        for var in ("MMDB_RECOVERY_THREADS", "MMDB_SHARDS",
                    "MMDB_INSTANT_RECOVERY", "MMDB_TRACE_CAPACITY"):
            env = dict(os.environ)
            env[var] = "1"
            done = run_bench("--workload", "oltp_uniform", "--seed", "1",
                             "--seconds", "1", "--trace", "0", env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
            self.assertIn(var, done.stderr)

    def test_unknown_workload_refused(self):
        done = run_bench("--workload", "nope", "--seed", "1", "--seconds",
                         "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
