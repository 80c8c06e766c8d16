// E17 — hot-path overhaul: cached join indexes, the scan cache and kept
// results, and shared-subplan evaluation.
//
// Four series:
//   * SubplanSharing/copies:N/shared:{0,1} — the E7 workload (N copies of
//     the payroll constraint pair). shared:1 registers every copy in one
//     monitor, whose subplan DAG coalesces the duplicates to one evaluation
//     per transition, so per-update time stays near-flat in N. shared:0
//     spreads the same copies over N one-pair monitors fed the same
//     batches, which share nothing: the linear reference.
//   * RestoredSharing/copies:N — the shared:1 monitor after a
//     SaveState/LoadState round trip. A restore keeps the sharing, so this
//     should match shared:1.
//   * OverlapSharing — constraints that differ but share temporal
//     subformulas: only the common nodes coalesce (shared:0 gives each
//     constraint its own monitor).
//   * AllocationsPerUpdate — steady-state heap allocations and bytes per
//     ApplyUpdate (global counting operator new; see alloc_counter.cc),
//     the direct measure of what the caches save.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"

namespace rtic {
namespace {

workload::Workload PayrollCopies(int copies) {
  workload::PayrollParams params;
  params.num_employees = 100;
  params.length = 200 + 64;
  params.update_prob = 0.9;
  params.seed = 606;
  workload::Workload w = workload::MakePayrollWorkload(params);
  std::vector<std::pair<std::string, std::string>> base = w.constraints;
  w.constraints.clear();
  for (int c = 0; c < copies; ++c) {
    for (const auto& [name, text] : base) {
      w.constraints.emplace_back(name + "_" + std::to_string(c), text);
    }
  }
  return w;
}

/// Monitors holding `w`'s constraints, one per `group` consecutive
/// constraints, so that nothing is shared between groups.
std::vector<std::unique_ptr<ConstraintMonitor>> MakeMonitors(
    const workload::Workload& w, std::size_t group) {
  std::vector<std::unique_ptr<ConstraintMonitor>> monitors;
  for (std::size_t i = 0; i < w.constraints.size(); i += group) {
    workload::Workload part;
    part.schema = w.schema;
    const std::size_t end = std::min(i + group, w.constraints.size());
    part.constraints.assign(w.constraints.begin() + i,
                            w.constraints.begin() + end);
    monitors.push_back(bench::MakeMonitor(part, MonitorOptions{}));
  }
  return monitors;
}

/// Feeds batches [0, 200) to every monitor, round-trips each through
/// SaveState/LoadState when `restore`, then times one batch per iteration,
/// applied to every monitor.
void RunMonitors(benchmark::State& state, const workload::Workload& w,
                 std::vector<std::unique_ptr<ConstraintMonitor>>& monitors,
                 bool restore = false) {
  for (auto& monitor : monitors) bench::FeedRange(monitor.get(), w, 0, 200);
  if (restore) {
    for (auto& monitor : monitors) {
      const std::string checkpoint =
          bench::CheckOk(monitor->SaveState(), "SaveState");
      bench::CheckOk(monitor->LoadState(checkpoint), "LoadState");
    }
  }
  std::size_t next = 200;
  for (auto _ : state) {
    if (next >= w.batches.size()) {
      state.SkipWithError("stream exhausted");
      break;
    }
    for (auto& monitor : monitors) {
      bench::CheckOk(monitor->ApplyUpdate(w.batches[next]), "ApplyUpdate");
    }
    ++next;
  }
  std::size_t constraints = 0;
  std::size_t coalesced = 0;
  for (const auto& monitor : monitors) {
    for (const ConstraintStats& s : monitor->Stats()) {
      ++constraints;
      coalesced += s.shared_subplans;
    }
  }
  state.counters["constraints"] = static_cast<double>(constraints);
  state.counters["coalesced"] = static_cast<double>(coalesced);
}

void BM_E17_SubplanSharing(benchmark::State& state) {
  const int copies = static_cast<int>(state.range(0));
  workload::Workload w = PayrollCopies(copies);
  const bool shared = state.range(1) != 0;
  const std::size_t per_copy = w.constraints.size() / copies;
  auto monitors = MakeMonitors(w, shared ? w.constraints.size() : per_copy);
  RunMonitors(state, w, monitors);
}

BENCHMARK(BM_E17_SubplanSharing)
    ->ArgNames({"copies", "shared"})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

void BM_E17_RestoredSharing(benchmark::State& state) {
  workload::Workload w = PayrollCopies(static_cast<int>(state.range(0)));
  auto monitors = MakeMonitors(w, w.constraints.size());
  RunMonitors(state, w, monitors, /*restore=*/true);
}

BENCHMARK(BM_E17_RestoredSharing)
    ->ArgNames({"copies"})
    ->Arg(8)
    ->Arg(32)
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

// Distinct constraints sharing temporal subformulas: every constraint keeps
// its own verdict evaluation; only the temporal-node updates coalesce.
void BM_E17_OverlapSharing(benchmark::State& state) {
  const int variants = static_cast<int>(state.range(0));

  workload::PayrollParams params;
  params.num_employees = 100;
  params.length = 200 + 64;
  params.update_prob = 0.9;
  params.seed = 707;
  workload::Workload w = workload::MakePayrollWorkload(params);
  w.constraints.clear();
  // Same "once[0, 50] Raise(e)" subplan under `variants` different salary
  // thresholds.
  for (int v = 0; v < variants; ++v) {
    w.constraints.emplace_back(
        "raise_floor_" + std::to_string(v),
        "forall e, s: Emp(e, s) and once[0, 50] Raise(e) implies s >= " +
            std::to_string(v));
  }
  const bool shared = state.range(1) != 0;
  auto monitors = MakeMonitors(w, shared ? w.constraints.size() : 1);
  RunMonitors(state, w, monitors);
}

BENCHMARK(BM_E17_OverlapSharing)
    ->ArgNames({"variants", "shared"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

// Steady-state allocation cost of one ApplyUpdate on the single-copy
// payroll workload (the E7 copies:1 shape). The cached join indexes, the
// scan cache and kept results exist to drive this toward zero.
void BM_E17_AllocationsPerUpdate(benchmark::State& state) {
  workload::Workload w = PayrollCopies(1);
  auto monitor = bench::MakeMonitor(w, EngineKind::kIncremental);
  bench::FeedRange(monitor.get(), w, 0, 200);

  std::size_t next = 200;
  std::uint64_t updates = 0;
  const std::uint64_t allocs_before = bench::AllocCount();
  const std::uint64_t bytes_before = bench::AllocBytes();
  for (auto _ : state) {
    if (next >= w.batches.size()) {
      state.SkipWithError("stream exhausted");
      break;
    }
    bench::CheckOk(monitor->ApplyUpdate(w.batches[next]), "ApplyUpdate");
    ++next;
    ++updates;
  }
  if (updates > 0) {
    state.counters["allocs_per_update"] = static_cast<double>(
        (bench::AllocCount() - allocs_before) / updates);
    state.counters["bytes_per_update"] = static_cast<double>(
        (bench::AllocBytes() - bytes_before) / updates);
  }
}

BENCHMARK(BM_E17_AllocationsPerUpdate)
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rtic
