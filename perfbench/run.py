#!/usr/bin/env python3
"""Build and run the mergepath benchmark.

    python3 perfbench/run.py --workload merge|sort|serve|xsort \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) under .bench_build/;
later calls only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero without
a result when the sources are missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no src/ next to perfbench/; "
                         "nothing to build\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    # A terminated driver must not leave the benchmark process running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
