#!/usr/bin/env python3
"""Build the spmvml benchmark from source and run one workload.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Run from the repository root. The library and the benchmark program are
built with CMake into .bench_build/perfbench (Release); its outputs (result
files, traces) go to .bench_out/. The last line of standard output is the
run's JSON result; with --trace 0 it carries the end-to-end metrics, with
--trace 1 the per-layer ones, exactly the names BENCHMARK.json lists.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                sys.exit(1)
    return os.path.join(BUILD_DIR, "perfbench")


def commit():
    # Only the checkout itself: git must not search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    expected = declared_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        got = set(result["metrics"])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(expected - got), sorted(got - expected))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout if run.returncode in (0, 1) else "")
        sys.stderr.write("run.py: perfbench exited with %d\n" % run.returncode)
        return run.returncode or 1
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("run.py: %s\n" % problem)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
