#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later runs only re-check the build. This process then
becomes the benchmark program, so its standard output is the program's:
human-readable lines, then one JSON object as the last line. Build output
goes to standard error. The exit status is the program's, or nonzero
without a result line when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "esg_perfbench")
WORKLOADS = ("scale", "campaign", "faulty-io")


def build():
    """Configure (once) and build the program; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at src/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "esg_perfbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build chatter must not reach stdout: its last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # Spans are kept in memory and written here when the run ends.
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # Replace this process with the benchmark program: nothing is left
    # running if the caller stops the run, and the exit status is the program's.
    os.execv(BINARY, command)


if __name__ == "__main__":
    sys.exit(main())
