#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library sources under src/) and runs one workload:

    python3 perfbench/run.py --workload ingest|fanout|sharded|swarm \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build/; scratch data goes to <build>/work. The last line
of standard output is the JSON result; the exit code is 0 only when every
correctness gate passed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_BUDGET_S = 700  # configure + build; the run's own limit comes on top


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; kills its process group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/; run from a full checkout",
              file=sys.stderr)
        return False
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      deadline - time.monotonic()) != 0:
            return False
    return run_logged(["cmake", "--build", out, "-j4", "--target", "rcm_perfbench"],
                      deadline - time.monotonic()) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "fanout", "sharded", "swarm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny phases; the benchmark's own test uses it")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "rcm_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", os.path.join(out, "work")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(stdout)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
