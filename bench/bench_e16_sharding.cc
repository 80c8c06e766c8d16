// E16 — horizontal sharding: updates/s vs shard count, and what the
// classifier buys.
//
// Claim: the paper-style constraint suites are embarrassingly partitionable
// — every one of the nine alarm/payroll/library constraints classifies
// partition-local under entity-keyed tables (partition_local_fraction =
// 1.0), so a sharded monitor runs them with no coordinator at all and
// per-transition work splits across shards. The scale curve shows the
// overhead side of the ledger (routing + N lockstep sub-applies per
// transition, one after another on the calling thread). A cross-shard
// constraint forces the coordinator's full-stream monitor up, bounding what
// misclassification would cost.
//
// Two benchmarks:
//
//   BM_E16_ShardScale — the combined library workload through
//     ShardedMonitor with shards in {1, 2, 4, 8}.
//     Counters: updates/s, partition-local fraction, violations.
//
//   BM_E16_CoordinatorOverhead — same workload with one deliberately
//     cross-shard constraint added: every transition now also runs through
//     the coordinator's unsharded inner monitor.
//
// The unsharded baseline for the same workload is shards:1 (one inner
// monitor plus routing); E1/E7 carry the un-routed single-monitor numbers.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "shard/sharded_monitor.h"
#include "workload/generators.h"

namespace rtic {
namespace {

workload::Workload LibraryWorkload() {
  workload::LibraryParams params;
  params.num_patrons = 400;
  params.num_books = 800;
  params.length = 600;
  return workload::MakeLibraryWorkload(params);
}

std::unique_ptr<shard::ShardedMonitor> MakeSharded(
    const workload::Workload& w, std::size_t shards) {
  auto monitor =
      bench::CheckOk(shard::ShardedMonitor::Create(shards), "Create");
  for (const auto& [name, schema] : w.schema) {
    bench::CheckOk(monitor->CreateTable(name, schema), "CreateTable");
  }
  for (const auto& [name, text] : w.constraints) {
    bench::CheckOk(monitor->RegisterConstraint(name, text), name.c_str());
  }
  return monitor;
}

std::size_t TupleCount(const workload::Workload& w) {
  std::size_t n = 0;
  for (const auto& batch : w.batches) n += batch.OperationCount();
  return n;
}

void RunShardScale(benchmark::State& state, bool add_cross_shard) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  auto w = LibraryWorkload();
  if (add_cross_shard) {
    // Constant at the key position: provably pinned to one shard while the
    // quantifier ranges over all of them, so the classifier must send it
    // to the coordinator.
    w.constraints.push_back(
        {"patron_seven_is_member", "forall b: Loan(7, b) implies Member(7)"});
  }
  const std::size_t tuples = TupleCount(w);

  double updates_per_sec = 0;
  double transitions_per_sec = 0;
  double local_fraction = 0;
  std::size_t violations = 0;
  for (auto _ : state) {
    auto monitor = MakeSharded(w, shards);
    const auto start = std::chrono::steady_clock::now();
    for (const auto& batch : w.batches) {
      auto verdict = bench::CheckOk(monitor->ApplyUpdate(batch), "ApplyUpdate");
      benchmark::DoNotOptimize(verdict);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    updates_per_sec = static_cast<double>(tuples) / elapsed;
    transitions_per_sec = static_cast<double>(w.batches.size()) / elapsed;
    local_fraction = monitor->PartitionLocalFraction();
    violations = monitor->total_violations();
    state.SetIterationTime(elapsed);
  }

  state.counters["shards"] = static_cast<double>(shards);
  state.counters["updates_per_sec"] = updates_per_sec;
  state.counters["transitions_per_sec"] = transitions_per_sec;
  state.counters["partition_local_fraction"] = local_fraction;
  state.counters["violations"] = static_cast<double>(violations);
}

void BM_E16_ShardScale(benchmark::State& state) {
  RunShardScale(state, /*add_cross_shard=*/false);
}

void BM_E16_CoordinatorOverhead(benchmark::State& state) {
  RunShardScale(state, /*add_cross_shard=*/true);
}

BENCHMARK(BM_E16_ShardScale)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_E16_CoordinatorOverhead)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rtic
