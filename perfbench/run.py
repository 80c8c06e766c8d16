#!/usr/bin/env python3
"""Builds and runs the rtic performance benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fleet_mem --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark (perfbench/CMakeLists.txt,
which compiles the library from ../src) as a Release build under
.bench_build/perfbench; later runs only bring that build up to date. The
benchmark binary then prints a run record, its metrics, and, as the last
line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--alter-witness (a self-test hook) corrupts one witness of the measured
transcript, which must make the run fail. The exit status is 0 only for a
correct run; a failed build or a missing source tree exits non-zero without
printing a result.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("fleet_mem", "serve_commit", "shard_library")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {root / 'src'}; run from the root of a "
             "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--alter-witness", action="store_true",
                        help="self-test: corrupt one witness; the run must "
                             "fail")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_root / "perfbench-work")]
    if args.alter_witness:
        cmd.append("--alter-witness")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s", code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()
