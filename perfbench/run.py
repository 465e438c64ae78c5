#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload (or all three).

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

The first run configures and builds perfbench/ (with the measurement core
under src/) into .bench_build/; later runs only check that the build is
up to date. Every other argument goes to the gcbench binary, which prints
its metrics and ends with one JSON line (see perfbench/README.md).
`--workload all` runs paper-grid, collect-analyse and trace-roundtrip in
turn and fails if any of them fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ["paper-grid", "collect-analyse", "trace-roundtrip"]


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "gcbench")


def first_failure(returncodes):
    """The first nonzero return code, or 0. A child killed by a signal has
    a negative one, which must fail the whole command too."""
    return next((rc if rc > 0 else 1 for rc in returncodes if rc), 0)


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    goldens = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens.txt")
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else 0
    if at and args[at:at + 1] == ["all"]:
        rcs = [subprocess.run([binary, "--goldens", goldens] + args[:at] + [w]
                              + args[at + 1:]).returncode for w in WORKLOADS]
        return first_failure(rcs)
    return subprocess.run([binary, "--goldens", goldens] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
