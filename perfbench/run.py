#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the C++ benchmark (perfbench/CMakeLists.txt, Release) against the
simulator sources in src/, then runs one workload:

    python3 perfbench/run.py --workload ds_closed --seed 1 --seconds 10 --trace 0

Workloads: ds_closed, lock_openloop, sharded_units, trace_replay.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last stdout line is the result object. Build output goes to stderr.
The build lands in $CARGO_TARGET_DIR/perfbench (default .bench_build/).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ds_closed", "lock_openloop", "sharded_units", "trace_replay")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target="perfbench"):
    """Configures (once) and builds @target; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "system.hh")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return out


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        ap.error("--seed must be >= 1 and --seconds > 0")

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    scratch = os.path.join(out, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch,
           "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
