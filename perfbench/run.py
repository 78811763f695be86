#!/usr/bin/env python3
"""Front-door benchmark entry point.

    python3 perfbench/run.py --workload <exact|sharded> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the benchmark program from the enclosing source tree (into $CARGO_TARGET_DIR,
default .bench_build, relative to the repository root), runs one workload and
prints its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Traced runs also write their spans to <build dir>/traces/.  Exits non-zero when the source
tree is missing, the build fails, the program fails an output check, or its
result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is cheap once cached, and keeps a reused build
    # directory in step with perfbench/CMakeLists.txt.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact", "sharded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no malsched source tree next to perfbench/ (missing %s)"
                 % needed)

    out = build_dir()
    program = build(out)
    command = [program, "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark program printed no result line (exit %d)" % done.returncode)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
