#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

Run from the repository root:

  python3 perfbench/run.py --workload release-upgrade --seed 1 \\
      --seconds 30 --trace 0

Every run configures and builds perfbench/ (which compiles the library
under src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
only the first run has much to compile. Build output goes to stderr.
The last line of stdout is the perfbench binary's JSON result; the exit
status is the binary's (0 = measured and correct).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("release-upgrade", "mirror-apply", "daemon-mirror")
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    """Configures and builds the perfbench binary; False on any failure."""
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(bench_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Scratch space for on-disk replicas; emptied so a killed run's
    # leftovers never accumulate.
    workdir = os.path.join(build_dir, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    binary = [os.path.join(build_dir, "perfbench"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", workdir]
    try:
        proc = subprocess.run(binary, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
