#!/usr/bin/env python3
"""Builds the benchmark program from the checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2_sweep --seed 1 --seconds 25 --trace 0

The perfbench program is configured and built with CMake into .bench_build at the
checkout root (an incremental no-op once built).  The program's last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics, is printed as this script's last line.  Build output goes to
standard error.  Exits non-zero, printing no result, when the build or the run
fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("fig2_sweep", "torus_churn", "random_failures", "random_recovery")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output sent to stderr; True on success.

    The step runs in its own process group so that on a timeout the compiler
    processes it started are stopped with it.
    """
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    if not run_quiet(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
        fail("configuring the build failed")
    if not run_quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                     BUILD_TIMEOUT_S):
        fail("building the benchmark program failed")

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(build_dir, "traces")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("the benchmark program exited with code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the benchmark program printed an unexpected result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
