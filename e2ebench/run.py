#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload explain-d10 --seed 1 --seconds 10 --trace 0

The build lives in $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and is incremental, so only the first run of a checkout compiles. Build
output goes to standard error; standard output is the benchmark's own, whose
last line is the JSON result. Extra arguments (such as --smoke) are passed to
the benchmark unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "hos_e2e")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(build_root, "e2ebench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    with subprocess.Popen([binary] + sys.argv[1:]) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("e2ebench: run exceeded its time limit", file=sys.stderr)
            return 1
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
