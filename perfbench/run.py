#!/usr/bin/env python3
"""Build the LFRC benchmark from the repository sources and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/lfrc_bench.exe with
dune (inside the repository's own _build, shared dune cache off) and runs
it; the benchmark's last output line is the JSON result. perfbench/NOTES.md
describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

# The benchmark's workloads (BENCHMARK.json), then sim-deque-3mode, which
# reproduces the corrected Snark deque's false-empty defect (NOTES.md).
WORKLOADS = ["stack-churn", "set-read-mostly", "queue-deferred",
             "sim-dlist-3mode", "sim-deque-3mode"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds <= 0:
        p.error("--seconds must be positive")

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: repository sources (dune-project, lib/) not found "
              "next to perfbench/", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/lfrc_bench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "lfrc_bench.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--git-rev", git_rev()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
