#!/usr/bin/env python3
"""Self-tests for the performance benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/selftest.py

1. Smoke: every workload (the two BENCHMARK.json gates and serve_commit)
   runs briefly with tracing off and on; each run must exit 0, report a
   correct verdict check, and print exactly the metrics BENCHMARK.json lists
   for that mode.
2. Negative: a run whose transcript has one witness altered must fail
   (non-zero exit, "correct": false), on every workload.
3. Bare tree: in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet_mem", "serve_commit", "shard_library")
SECONDS = "1"


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "0": sorted(m["name"] for m in spec["end_to_end"]),
        "1": sorted(m["name"] for m in spec["per_layer"]),
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc, result = run(["--workload", name, "--seed", "1",
                                "--seconds", SECONDS, "--trace", trace])
            what = f"smoke {name} --trace {trace}"
            check(proc.returncode == 0 and result is not None
                  and result["correct"] is True
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and sorted(result["metrics"]) == want[trace], what)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])

        proc, result = run(["--workload", name, "--seed", "1", "--seconds",
                            SECONDS, "--trace", "0", "--alter-witness"])
        check(proc.returncode != 0 and result is not None
              and result["correct"] is False,
              f"altered witness fails {name}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc, result = run(["--workload", "fleet_mem", "--seed", "1",
                        "--seconds", SECONDS, "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and result is None,
          "bare tree exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
