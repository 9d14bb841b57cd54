#!/usr/bin/env python3
"""Builds porcbench from the enclosing checkout and runs one workload.

    python3 perfbench/run.py --workload compile|run|serve --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; the first run configures and builds (about a minute on four
cores), later runs only re-check it. Build output goes to stderr, so the
last line of stdout is porcbench's JSON result. Run records and Chrome
traces land in <build root>/results/. See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no Porcupine sources around {bench_dir}; run from a checkout")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    results = build_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))

    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "porcbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")

    cmd = [str(build_dir / "porcbench"), *sys.argv[1:], "--out-dir",
           str(results)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"porcbench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
