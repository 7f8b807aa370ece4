#!/usr/bin/env python3
"""Rewrite moatbench/expected.json: the result digest and the simulated
counts of every workload for a fixed set of seeds and scales.

run.py fails a run whose (workload, scale, seed) is in that file and
whose output differs from it, so a speed-only change cannot alter the
simulated results unnoticed. Rerun this only for a change that alters
the simulated output on purpose, and say why in the change. Run from
the checkout root:

    python3 moatbench/expect.py

It builds like run.py and takes one untimed pass per entry (the
harness's `digest` mode), about 8 s per full-scale seed on 4 cores.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

FULL_SEEDS = range(0, 64)
TINY_SEEDS = range(0, 16)


def digest(workload, scale, seed, state):
    cmd = [run.HARNESS, "digest", "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--state",
           os.path.relpath(state, run.ROOT)]
    if scale == "tiny":
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    run.build()
    state = run.state_dir(run.source_digest())
    runs = {}
    for scale, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
        for workload in run.WORKLOADS:
            for seed in seeds:
                key = "%s/%s/%d" % (workload, scale, seed)
                runs[key] = digest(workload, scale, seed, state)
                print(key, runs[key]["digest"], flush=True)
    run.clean_scratch(state)
    fingerprint = json.loads(subprocess.run(
        [run.HARNESS, "info"], capture_output=True, text=True, check=True,
        timeout=60).stdout)
    out = {
        "about": "Result digest and simulated counts of one pass per "
                 "(workload, scale, seed), written by moatbench/expect.py "
                 "and checked by moatbench/run.py.",
        "written_with": {"compiler": fingerprint["compiler"],
                         "build_type": fingerprint["build_type"]},
        "runs": runs,
    }
    with open(run.EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
