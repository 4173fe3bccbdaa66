#!/usr/bin/env python3
"""Fleet benchmark entry point.

    python3 fleetbench/run.py --workload wire-small|solve-heavy|replay-zipf \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds pipeopt and the fleetbench load
generator (CMake, Release) into $CARGO_TARGET_DIR/fleetbench, or
.bench_build/fleetbench when that variable is unset, then runs the generator
(src/main.cpp describes a run). Build output goes to stderr; the last line
on stdout is the JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire-small", "solve-heavy", "replay-zipf")
# A run measures --seconds plus warm-up, set-up and the reference solves;
# anything near this limit is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fleetbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "fleetbench")
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        print("fleetbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "fleetbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", build_dir]
    sys.stdout.flush()
    # Its own process group holds the generator and the fleet it launches,
    # so a hung run can be stopped whole.
    generator = subprocess.Popen(command, start_new_session=True)
    try:
        return generator.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("fleetbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if generator.poll() is None:
            os.killpg(generator.pid, signal.SIGKILL)
            generator.wait()


if __name__ == "__main__":
    sys.exit(main())
