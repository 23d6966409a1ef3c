#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bulk_native --seed 1 --seconds 30 --trace 0

The program and the libraries it links are built from the checkout's own
sources into .bench_build/ (Release, at most nproc jobs); later runs only
rebuild what changed. Every argument is passed to the program, whose last
line of standard output is the result object. Build output goes to
.bench_build/build.log, never to standard output.

Exit codes: the program's (0 correct, 1 a wrong, refused or failed
operation); 2 when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
LOG = os.path.join(OUT, "build.log")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository" % needed)
    os.makedirs(OUT, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(LOG, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if run_logged(["cmake", "-S", "perfbench", "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
                fail("configure failed; see " + LOG)
        if run_logged(["cmake", "--build", BUILD, "-j", jobs], log) != 0:
            fail("build failed; see " + LOG)
    return os.path.join(BUILD, "perfbench")


def main():
    program = build()
    # The program's paths are relative to the checkout root.
    return subprocess.run([program] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
