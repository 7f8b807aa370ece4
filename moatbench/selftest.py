#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload of BENCHMARK.json untraced and traced at the tiny
scale (every window fraction / 16, one measured second) and asserts
that each run exits 0, passes its output checks, and prints every
metric BENCHMARK.json names, with its unit. Run from the checkout
root:

    python3 moatbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def check(workload, trace, spec):
    """Problems found in one tiny run; empty when it passes."""
    cmd = [sys.executable, "moatbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit %d: %s" % (proc.returncode, proc.stderr[-400:])]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys " + ",".join(sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output check failed")
    if not result.get("attempted", 0) >= 1:
        problems.append("nothing attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            problems.append("%s printed as %r" % (m["name"], got))
    if trace == 0:
        zero = [m["name"] for m in wanted if not metrics[m["name"]]["value"]]
        if zero:
            problems.append("end-to-end metrics read 0: " + ",".join(zero))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print("%-4s %s --trace %d%s" % (
                "FAIL" if problems else "ok", workload, trace,
                "".join("\n     " + p for p in problems)), flush=True)
    print("selftest: %d of %d runs failed" % (failures,
                                              2 * len(spec["workloads"])))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
