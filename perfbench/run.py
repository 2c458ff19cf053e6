#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/perfbench.exe
from source with dune (into $CARGO_TARGET_DIR when set, else _build),
runs it, and passes its output through: a table of metrics, then one
JSON line {"correct", "attempted", "failed", "metrics"}.  The exit code
is the benchmark's; it is non-zero when the build or a run fails, and
then no result line is printed.

Extra flags for the self-tests: --smoke (tiny sizes), --inputs (print a
digest of the seed-generated inputs instead of measuring).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found; run from a checkout of the repository" % needed)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir, "--profile", "release",
           "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if done.returncode != 0:
        sys.exit("perfbench: build failed (dune exit %d)" % done.returncode)
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    return exe if os.path.isabs(exe) else os.path.join(ROOT, exe)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inputs", action="store_true")
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inputs:
        cmd.append("--inputs")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: run failed (exit %d)" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    if not args.inputs:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            sys.exit("perfbench: malformed result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
