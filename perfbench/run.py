#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON line.

Builds perfbench/vbbench from this checkout's sources (into .bench_build/),
runs one workload and prints, as the last line of standard output,

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0), or every
per-layer metric (--trace 1).  A traced run records spans during the first
repetition of the main phase and writes them as a Chrome trace under
.bench_build/traces/; trace.overhead_s compares it with the untraced
repetitions.  Any failed check, crash or missing metric exits non-zero
without printing a result.

  python3 perfbench/run.py --workload arena_tree_8k --seed 42 --seconds 40 \
      --trace 0 [--smoke]

--smoke runs the small size of the workload (perfbench/test_smoke.py).
shuffle_16k runs here but is not in BENCHMARK.json until sim::EventQueue
delivers its rebalance burst in time order (NOTES.md, "Known defect").
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("shuffle_16k", "arena_vbundle_3k", "arena_tree_8k")
# A measurement that runs this long has hung; runs take well under a minute.
MEASURE_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "vbbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "vbbench"


def measure(binary, args, trace_out=None):
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd.append(f"--trace-out={trace_out}")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {MEASURE_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {p.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["violations"]:
        fail(f"{args.workload} failed its checks: {out['violations']}")
    return out


def select(spec, measured):
    """The spec'd metrics, in spec order, with units checked."""
    metrics = {}
    for m in spec:
        got = measured.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if args.trace == 0:
        result = measure(binary, args)
        metrics = select(spec["end_to_end"], result["metrics"])
    else:
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
        result = measure(binary, args, trace_out)
        metrics = select(spec["per_layer"], result["metrics"])
        print(f"perfbench: Chrome trace written to {trace_out}",
              file=sys.stderr)
    print(json.dumps({"correct": True,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
