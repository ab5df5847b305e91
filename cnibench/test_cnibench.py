#!/usr/bin/env python3
"""Tests of the benchmark itself (not of cni):

    python3 cnibench/test_cnibench.py

Each workload runs once at --size tiny, traced and untraced, on the
default and the held-out seed; every run must pass its digest checks
and print exactly the metrics BENCHMARK.json names. A perturbed
expectation must fail the run. Builds into the usual build directory
on first use.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*argv):
    """Run run.py; returns its last stdout line parsed as JSON."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        *argv], cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    assert p.returncode == 0, f"run.py {argv} exited {p.returncode}"
    return json.loads(p.stdout.strip().splitlines()[-1])


def tiny(workload, seed=1, trace=0):
    return bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "0.2", "--trace", str(trace),
                 "--size", "tiny")


class NamesTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(spec["paths"], ["cnibench"])


class TinyPassTest(unittest.TestCase):
    def check(self, out, units):
        self.assertTrue(out["correct"], out)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), set(units))
        for name, m in out["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for w in run.WORKLOADS:
            for seed in (1, 2):  # default and held-out seed
                with self.subTest(workload=w, seed=seed):
                    self.check(tiny(w, seed, 0), run.END_TO_END)
                    self.check(tiny(w, seed, 1), run.PER_LAYER)

    def test_trace_is_chrome_trace_json(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                tiny(w, 1, 1)
                path = os.path.join(run.build_dir(), "traces",
                                    f"{w}-seed1.json")
                with open(path) as f:
                    trace = json.load(f)
                events = trace["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])
                    self.assertIn("run", e["args"])


class DigestTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "build failed"

    def test_perturbed_expectation_fails(self):
        pins = run.load_expected()["tiny"]
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                args = argparse.Namespace(workload=w, seed=1, seconds=0.2,
                                          trace=0, size="tiny", pin=False)
                doc = run.measure(args, None)
                self.assertEqual(doc["failed"], 0, doc["failures"])
                # Flip one digit of every pinned digest of this
                # workload, so whichever ops the seed selects, each
                # meets a wrong expectation.
                bad = {op: d[:-1] + ("0" if d[-1] != "0" else "1")
                       for op, d in pins.items()}
                run.check_pins(doc, bad)
                self.assertGreaterEqual(doc["failed"], 1)
                self.assertLessEqual(doc["failed"], doc["attempted"])


if __name__ == "__main__":
    unittest.main()
