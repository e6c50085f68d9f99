#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload sift-local --seed 1 --seconds 8 --trace 0

Builds perfbench/ (and the library it links) with CMake into
$CARGO_TARGET_DIR/perfbench, defaulting to .bench_build/perfbench, then runs
the binary with the same arguments. The binary prints its report and, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. Exit codes: 0 success, 1 a correctness check
failed, 2 build or usage error, 3 the run was invalid (the load generator
fell behind its own schedule), 4 the run timed out.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sift-local", "sift-remote-zipf", "gist-churn")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    env = dict(os.environ)
    # Compile without a compiler cache: the build must write only inside
    # the checkout.
    env["CCACHE_DISABLE"] = "1"
    configure = [
        "cmake", "-S", str(bench_dir), "-B", str(build_dir),
        "-DCMAKE_BUILD_TYPE=Release", "-DCCACHE_PROGRAM=",
    ]
    compile_ = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", str(min(4, os.cpu_count() or 1))]
    for cmd in (configure, compile_):
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(2, "build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    out_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    build_dir = out_root / "perfbench"
    build(bench_dir, build_dir)

    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(2, f"no binary at {binary}")
    work_dir = out_root / "perfbench-work"
    work_dir.mkdir(parents=True, exist_ok=True)

    # The library's figure benches read PPANNS_BENCH_* scale knobs; the
    # benchmark's configuration is frozen, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PPANNS_BENCH")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
