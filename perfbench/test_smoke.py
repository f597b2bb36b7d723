#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on the small size of each workload.

  python3 perfbench/test_smoke.py

For every workload: an untraced and a traced run print every metric of
BENCHMARK.json with its unit and pass their checks, and two runs with one
seed agree exactly on the simulated outcomes.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

from run import WORKLOADS  # every workload run.py takes, gated or not

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Simulated outcomes: a pure function of the seed.
EXACT_END_TO_END = ["acceptance_rate", "revenue_capture", "util_sd",
                    "ctrl_msgs_per_host_h", "boot_p99_sim_ms"]
EXACT_PER_LAYER = ["ckpt.bytes", "arena.decision_fingerprint", "sim.events",
                   "pastry.bytes.total", "migration.completed",
                   "arena.offered", "vbundle.visits_per_vm"]


def bench(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, out, spec):
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertGreaterEqual(out["failed"], 0)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_printed_and_checks_pass(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                e2e = bench(w, 7, 0)
                self.check_result(e2e, SPEC["end_to_end"])
                for name, m in e2e["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{w} {name}")
                self.check_result(bench(w, 7, 1), SPEC["per_layer"])

    def test_exact_metrics_repeat_for_a_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = bench(w, 11, 0), bench(w, 11, 0)
                for n in EXACT_END_TO_END:
                    self.assertEqual(a["metrics"][n], b["metrics"][n], n)
                self.assertEqual(a["attempted"], b["attempted"])
                self.assertEqual(a["failed"], b["failed"])
                ta, tb = bench(w, 11, 1), bench(w, 11, 1)
                for n in EXACT_PER_LAYER:
                    self.assertEqual(ta["metrics"][n], tb["metrics"][n], n)
                c = bench(w, 12, 0)
                self.assertNotEqual(
                    [a["metrics"][n] for n in EXACT_END_TO_END],
                    [c["metrics"][n] for n in EXACT_END_TO_END],
                    "the seed does not reach the workload")


if __name__ == "__main__":
    unittest.main()
