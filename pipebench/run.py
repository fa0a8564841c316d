#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Usage, from the repository root:

    python3 pipebench/run.py --workload steady-churn --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first call configures and builds pipebench/ (the program's libraries
from src/ plus the benchmark program) into .bench_build/pipebench; later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. `--workload all` runs the three
workloads in turn. Exit status: 0 when every run passed its output checks,
non-zero on a build failure, a failed check, or a run that overstays its
time limit.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
WORKLOADS = ["steady-churn", "cold-start", "audit-trace"]
# Set-up, warm-up and the crypto probes come on top of the measured seconds.
RUN_OVERHEAD_S = 150


def build():
    """Configure once, then build incrementally; serialized by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", "pipebench", "-j", jobs],
                       check=True, stdout=sys.stderr)


def run_one(args, workload):
    workdir = os.path.join(BUILD_ROOT, "pipebench-work-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(BUILD_ROOT, "pipebench-spans-%s.jsonl" % workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=args.seconds + RUN_OVERHEAD_S).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: %s overstayed its time limit" % workload, file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops instead of --seconds")
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("pipebench: build failed: %s" % e, file=sys.stderr)
        return 3
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run_one(args, workload) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
