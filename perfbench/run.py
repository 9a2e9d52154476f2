#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 1 --seconds 40 --trace 0

The program is built with dune into .bench_build/ (no shared dune cache),
then run with the same arguments plus the host's usable core count.
Build output goes to stderr, so the last line of stdout is the program's
JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGET = "perfbench/main.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, TARGET,
    ]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exit {built.returncode})")
    exe = os.path.join(root, BUILD_DIR, "default", TARGET)
    nproc = len(os.sched_getaffinity(0))
    cmd = [exe, *sys.argv[1:], "--nproc", str(nproc), "--out", OUT_DIR]
    try:
        ran = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: run failed: {err}")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
