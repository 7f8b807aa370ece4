#!/usr/bin/env python3
"""moatbench: the end-to-end and per-layer benchmark of moatsim.

Run from the root of a source checkout:

    python3 moatbench/run.py --workload suite-cold --seed 1 \\
        --seconds 20 --trace 0

The first run builds the simulator and the harness from source into
.bench_build/moatbench/ (CMake); later runs reuse the build. Each run
launches the harness (moatbench/src) once per mode, so every workload
runs in its own process:

  * set-up: the harness is started several times and timed from
    process start until it reports that the first cell or request can
    be issued; setup_s is the median.
  * --trace 0: untraced passes for --seconds; prints the end-to-end
    metrics named in BENCHMARK.json.
  * --trace 1: untraced and traced passes alternate; in a traced pass
    the harness times its own calls into each layer. Prints the
    per-layer metrics, the tracing overhead, and the share of traced
    wall time no layer span covers. Spans are written to the state
    directory.

Output checks: every pass's result JSONL must equal the run's first
pass byte for byte, and the traced passes must equal the untraced
ones. The digest of that JSONL and the five simulated counts must
equal the committed moatbench/expected.json entry of the same
(workload, scale, seed); for a seed that file does not hold, they must
equal the first run of that key in this checkout (kept in
.bench_build/moatbench/digests.json, across source edits). serve-warm
replies must equal the direct engine's lines and the daemon must
recompute nothing. Any divergence prints "correct": false and exits 1.
moatbench/expect.py rewrites expected.json; a change that alters the
simulated output on purpose reruns it and says why.

Every run appends a provenance record (seed, workload definition,
machine fingerprint) to .bench_build/moatbench/records.jsonl and
prints it. The last stdout line is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "moatbench")
BUILD = os.path.join(WORK, "build")
HARNESS = os.path.join(BUILD, "moatbench")
WORKLOADS = ["suite-cold", "matrix-eth", "serve-warm", "coattack-mix"]
EXPECTED = os.path.join(HERE, "expected.json")
COUNTS = ["sim.acts", "abo.alerts", "abo.rfms", "mitigation.mitigations",
          "attacks.max_hammer"]
SETUP_SPAWNS = 51
RUN_TIMEOUT_S = 170


def fail(message):
    print("moatbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    """Run a build step, appending its output to the build log."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build step failed: " + " ".join(cmd))


def build():
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(WORK, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log, 600)
    run_logged(["cmake", "--build", BUILD, "-j", "4"], log, 900)


def source_digest():
    """sha256 over the simulator sources and the benchmark."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "moatbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_rev():
    """HEAD of the checkout when it is the top of a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def harness_args(mode, args, state):
    cmd = [HARNESS, mode, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--state",
           os.path.relpath(state, ROOT)]
    return cmd + (["--tiny"] if args.scale == "tiny" else [])


def run_harness(mode, args, state):
    """One harness process; returns its result object (last stdout line)."""
    proc = subprocess.run(harness_args(mode, args, state), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness %s failed (exit %d)" % (mode, proc.returncode))
    return json.loads(lines[-1])


def setup_seconds(args, state):
    """Median time from process start until the harness reports ready."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.Popen(harness_args("setup", args, state), cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            ready = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready != "ready" or proc.returncode != 0:
            fail("set-up run did not become ready")
    return statistics.median(times), len(times)


def expected_key(args):
    return "%s/%s/%d" % (args.workload, args.scale, args.seed)


def check_output(args, digest, counts):
    """The run's digest and simulated counts against expected.json, or,
    for a seed it does not hold, against the first run of the same key
    in this checkout. Returns (same, source of the reference)."""
    got = {"digest": digest, "counts": counts}
    with open(EXPECTED) as f:
        expected = json.load(f)["runs"]
    key = expected_key(args)
    if key in expected:
        return expected[key] == got, "expected.json"
    path = os.path.join(WORK, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known:
        return known[key] == got, "first run in this checkout"
    known[key] = got
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True, "first run in this checkout (recorded now)"


def state_dir(digest):
    """Per-source-version state: the serve-warm store and scratch."""
    state = os.path.join(WORK, "state", digest[:16])
    os.makedirs(state, exist_ok=True)
    return state


def clean_scratch(state):
    """Drop per-process leftovers (sockets, scratch stores)."""
    for name in os.listdir(state):
        if name.startswith("tmp-"):
            path = os.path.join(state, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.remove(path)


def describe_accuracy(acc):
    return ("accuracy: mean slowdown %.3f%% vs paper %.2f%% (%+.3f pp); "
            "roms %.3f%% vs paper ~%.0f%% (%+.3f pp). The reference is "
            "the paper's own simulation (Fig. 11, ATH=64); the model is "
            "not validated against hardware."
            % (acc["mean_slowdown_pct"], acc["paper_mean_slowdown_pct"],
               acc["mean_slowdown_pct"] - acc["paper_mean_slowdown_pct"],
               acc["roms_slowdown_pct"], acc["paper_roms_slowdown_pct"],
               acc["roms_slowdown_pct"] - acc["paper_roms_slowdown_pct"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: every window fraction / 16 (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no moatsim source tree at " + ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    digest = source_digest()
    state = state_dir(digest)
    clean_scratch(state)
    # serve-warm's store is filled once per source version, on the first
    # run of any workload, so that run (the build's) carries the cost.
    run_harness("fill", argparse.Namespace(**dict(
        vars(args), workload="serve-warm")), state)

    try:
        if args.trace:
            result = run_harness("trace", args, state)
            wanted = spec["per_layer"]
        else:
            setup_s, spawns = setup_seconds(args, state)
            result = run_harness("measure", args, state)
            result["metrics"]["setup_s"] = setup_s
            result["info"]["setup_spawns"] = spawns
            wanted = spec["end_to_end"]
    finally:
        clean_scratch(state)

    counts = result["info"]["counts"] if not args.trace else \
        {name: int(result["metrics"][name]) for name in COUNTS}
    same_output, reference = check_output(args, result["digest"], counts)
    correct = bool(result["correct"]) and same_output
    info = result["info"]
    fingerprint = json.loads(subprocess.run(
        [HARNESS, "info"], capture_output=True, text=True, check=True,
        timeout=60).stdout)
    fingerprint.update({"nproc": os.cpu_count(), "git_rev": git_rev(),
                        "source_digest": digest})
    record = {
        "time_unix": time.time(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "definition": info.get("definition"),
        "fingerprint": fingerprint, "correct": correct,
        "digest": result["digest"], "counts": counts,
        "same_output": same_output, "output_reference": reference,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": result["metrics"], "info": info,
    }
    with open(os.path.join(WORK, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("record: " + json.dumps(record, sort_keys=True))
    if "accuracy" in info:
        print(describe_accuracy(info["accuracy"]))
    if args.trace:
        m = result["metrics"]
        print("tracing: traced pass wall %+.1f%% against the untraced "
              "median; %.2f%% of traced wall time has no layer span open"
              % (100 * m["trace.overhead_frac"],
                 100 * m["trace.uncovered_frac"]))

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in result["metrics"]:
            fail("harness did not report " + name)
        metrics[name] = {"value": result["metrics"][name],
                         "unit": entry["unit"]}
    if not same_output:
        print("moatbench: result digest or simulated counts differ from "
              + reference, file=sys.stderr)
    failed = result["failed"] + (0 if same_output else 1)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
