#!/usr/bin/env bash
# Repo-wide verification: the tier-1 suite, a label guard (every ctest label
# is documented in README's label paragraph and in the header comment of
# tests/CMakeLists.txt), a cookbook smoke running every
# scenario_runner command printed in docs/SCENARIOS.md, an AddressSanitizer
# pass over the unit, fuzz, and fault ctest labels (the unit label includes
# memory_bound_test, the live-heap bound, which counts under ASan too and
# skips with a message wherever its counting operator new cannot count),
# an ASan+UBSan pass over
# the checkpoint, shard, anchor, and workload labels plus a
# bench_e13_checkpoint smoke
# (the codec and delta-chain paths do the bit-level byte banging most
# likely to trip UB; the shard label's merge paths shuffle Violation
# vectors across monitors; the anchor label hammers the columnar store's
# span arithmetic; the workload label sweeps the scenario generators and
# the open-loop driver), a ThreadSanitizer pass over the parallel, fault,
# replication, server, shard, and anchor labels (concurrent WAL appends,
# the crash matrices, the background shipper thread, and the multi-session
# TCP server, whose tenants each check on their own worker thread, are the
# concurrency-heavy paths; every monitor checks its constraints on the
# calling thread), and a perf-regression gate over the two newest
# BENCH_*.json files from scripts/bench.sh (skipped until two runs exist).
# The ASan+UBSan pass also runs the KeptResultTest and BatchAbsorbTest
# suites (tests/reuse_test.cc: kept-result keys hold table pointers, and
# tables hold batch records) and the SharedScanTest suite
# (tests/shared_scan_test.cc: a monitor's scan-cache slots hold rows that
# its engines share, and trust table ids). The domain-tracker tests ride
# on the labels they carry: domain_analysis_test (unit) and the fresh-id
# commit case of memory_bound_test (unit) run under ASan, domain_fuzz_test
# (fuzz) under ASan, and the parent-written checkpoint chain of
# checkpoint_delta_test (checkpoint) under ASan+UBSan. So does
# memory_bound_test's fleet allocation gate (unit, ASan): allocation
# counts do not depend on the build type, so one ceiling holds there too.
#
#   scripts/check.sh           # full run (tier-1 + asan + asan+ubsan + tsan)
#   scripts/check.sh --fast    # tier-1 only (perf gate still runs)
#
# Build directories: build/ (plain RelWithDebInfo), build-asan/
# (RTIC_SANITIZE=address), build-asan-ubsan/
# (RTIC_SANITIZE=address+undefined), and build-tsan/
# (RTIC_SANITIZE=thread). All are created on demand and reused. The
# sanitizer trees compile only what they run: build-asan/ and build-tsan/
# are configured without benchmarks and examples, and build-asan-ubsan/
# builds the test binaries (the `rtic_tests` target) plus
# bench_e13_checkpoint.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1: configure + build + full ctest (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Label guard: the label lists in README and tests/CMakeLists.txt are kept
# by hand, so fail when ctest reports a label either of them omits.
echo "== label guard: ctest labels in README and tests/CMakeLists.txt =="
mapfile -t labels < <(cd build && ctest --print-labels |
  sed -n '/^All Labels:/,$p' | tail -n +2 | sed 's/^ *//')
if [[ ${#labels[@]} -eq 0 ]]; then
  echo "label guard: ctest --print-labels reported no label" >&2
  exit 1
fi
readme_labels="$(awk '/^Tests carry ctest labels/,/^$/' README.md)"
cmake_header="$(awk '!/^#/{exit} {print}' tests/CMakeLists.txt)"
undocumented=0
for label in "${labels[@]}"; do
  if ! grep -qF "\`$label\`" <<<"$readme_labels"; then
    echo "label guard: '$label' is missing from README's label paragraph" >&2
    undocumented=1
  fi
  if ! grep -qE "^#[[:space:]]+$label[[:space:]]+—" <<<"$cmake_header"; then
    echo "label guard: '$label' is missing from tests/CMakeLists.txt's" \
      "header comment" >&2
    undocumented=1
  fi
done
if [[ "$undocumented" != 0 ]]; then
  exit 1
fi
echo "label guard: ${#labels[@]} labels documented"

# Cookbook smoke: every line of docs/SCENARIOS.md that begins with
# ./build/examples/scenario_runner runs as written, so every copy-paste
# command in the cookbook is known to run; then `describe` for each of the
# five scenario families.
echo "== cookbook smoke: docs/SCENARIOS.md commands =="
SR=./build/examples/scenario_runner
cookbook() { echo "  $*"; "$@" >/dev/null; }
mapfile -t doc_commands < \
  <(grep -E '^\./build/examples/scenario_runner( |$)' docs/SCENARIOS.md)
if [[ ${#doc_commands[@]} -eq 0 ]]; then
  echo "cookbook smoke: no $SR command found in docs/SCENARIOS.md" >&2
  exit 1
fi
for line in "${doc_commands[@]}"; do
  read -ra command <<<"$line"
  cookbook "${command[@]}"
done
for s in alarm payroll library freshness commit; do
  cookbook "$SR" describe "$s"
done

# Perf-regression gate: compare the two newest BENCH_*.json snapshots
# (scripts/bench.sh writes one per run). Deliberately generous — only a
# benchmark that was at least 50 ms and got RTIC_PERF_THRESHOLD times
# slower (default 3.0) fails; wall-clock jitter on shared machines is
# real. Skipped with a note until two snapshots exist.
echo "== perf gate: newest two BENCH_*.json =="
RTIC_PERF_THRESHOLD="${RTIC_PERF_THRESHOLD:-3.0}" python3 - <<'PY'
import glob, json, os, sys

snaps = sorted(glob.glob("BENCH_*.json"))
if len(snaps) < 2:
    print(f"perf gate: skipping: only {len(snaps)} snapshot(s) found, need 2")
    sys.exit(0)
old_path, new_path = snaps[-2], snaps[-1]
threshold = float(os.environ["RTIC_PERF_THRESHOLD"])
min_ms = 50.0

def times(path):
    with open(path) as f:
        merged = json.load(f)
    out = {}
    for binary, report in merged.items():
        # Prefer the precomputed min-across-repetitions (scripts/bench.sh
        # with RTIC_BENCH_REPS): the minimum is the least-noisy statistic
        # on a shared machine. Fall back to raw rows for older snapshots,
        # taking the min across any repeated names.
        mins = report.get("rtic_min_ms")
        if mins:
            for name, ms in mins.items():
                out[f"{binary}/{name}"] = ms
            continue
        for row in report.get("benchmarks", []):
            if row.get("run_type") == "aggregate":
                continue
            ms = row["real_time"]
            unit = row.get("time_unit", "ns")
            ms *= {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
            key = f"{binary}/{row['name']}"
            out[key] = ms if key not in out else min(out[key], ms)
    return out

old, new = times(old_path), times(new_path)
regressions = []
for name, new_ms in sorted(new.items()):
    old_ms = old.get(name)
    if old_ms is None or old_ms < min_ms:
        continue
    if new_ms > threshold * old_ms:
        regressions.append((name, old_ms, new_ms))
print(f"perf gate: {old_path} -> {new_path}, "
      f"{len(new)} benchmarks, threshold {threshold}x, floor {min_ms} ms")
for name, old_ms, new_ms in regressions:
    print(f"  REGRESSION {name}: {old_ms:.1f} ms -> {new_ms:.1f} ms "
          f"({new_ms / old_ms:.2f}x)")
sys.exit(1 if regressions else 0)
PY

if [[ "$FAST" == 1 ]]; then
  echo "== ok (fast mode: asan pass skipped) =="
  exit 0
fi

echo "== asan: unit + fuzz + fault labels (build-asan/) =="
cmake -B build-asan -S . -DRTIC_SANITIZE=address \
  -DRTIC_BUILD_BENCHMARKS=OFF -DRTIC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS" -L 'unit|fuzz|fault')

echo "== asan+ubsan: checkpoint + shard + anchor + workload labels + reuse and shared-scan suites + bench_e13 smoke (build-asan-ubsan/) =="
cmake -B build-asan-ubsan -S . -DRTIC_SANITIZE=address+undefined \
  -DRTIC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan-ubsan -j "$JOBS" \
  --target rtic_tests bench_e13_checkpoint
(cd build-asan-ubsan && ctest --output-on-failure -j "$JOBS" -L 'checkpoint|shard|anchor|workload')
(cd build-asan-ubsan && ctest --output-on-failure -j "$JOBS" -R '^(KeptResultTest|BatchAbsorbTest|SharedScanTest)\.')
# A 30-second cap keeps the smoke cheap: one small-state full-vs-delta pair
# is enough to drive the codec, the delta writer, and chain recovery under
# both sanitizers. Codec or chain regressions fail fast here.
timeout 30 ./build-asan-ubsan/bench/bench_e13_checkpoint \
  --benchmark_filter='state:1000'

echo "== tsan: parallel + fault + replication + server + shard + anchor labels (build-tsan/) =="
cmake -B build-tsan -S . -DRTIC_SANITIZE=thread \
  -DRTIC_BUILD_BENCHMARKS=OFF -DRTIC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS"
# TSan slows the exhaustive crash matrices ~10x; subsample their fault
# triggers so the fault and replication labels stay inside their
# timeouts. Coverage of every trigger comes from the uninstrumented
# tier-1 run above.
(cd build-tsan && RTIC_MATRIX_STRIDE=7 \
  ctest --output-on-failure -j "$JOBS" \
  -L 'parallel|fault|replication|server|shard|anchor')

echo "== ok =="
