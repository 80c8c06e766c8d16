// E2 — storage vs history length.
//
// Claim: the auxiliary relations of the bounded history encoding occupy
// space independent of the history's length (they depend only on the
// constraint's metric bounds and the active data), while the naive checker's
// stored history grows linearly with the number of states.
//
// Measured quantities: rows retained by the checker after the full run
// (counter `storage_rows`), for history lengths in {250, 500, 1000, 2000},
// and the live heap the monitor holds at the end (counter `heap_live_kib`,
// global counting operator new; see alloc_counter.cc). Rows count only the
// encoding; the heap counts everything the checker keeps, caches included.
//
// BM_E2_HeapLoanStream runs the loan stream of tests/memory_bound_test.cc
// without its standing violation (every patron a member, then one loan per
// state, each returned the state after, over 1000 x 1000 keys) for 5k, 20k
// and 80k states through the incremental engine: with a saturated domain
// and one live loan, `heap_live_kib` must not grow with the state count.
//
// BM_E2_HeapCommitStream runs the commit-protocol family (default dials,
// seed 4242, its five constraints, one in-memory monitor) for the same state
// counts. Its transaction ids are fresh, so the values seen keep growing
// while the live data stays bounded; none of the five constraints reads the
// quantification domain, so no engine keeps those values and
// `heap_live_kib` must not grow with the state count either.

#include <benchmark/benchmark.h>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "common/rng.h"

namespace rtic {
namespace {

workload::Workload AlarmStream(std::size_t length) {
  workload::AlarmParams params;
  params.num_alarms = 30;
  params.length = length;
  params.deadline = 50;
  params.raise_prob = 0.5;
  params.late_prob = 0.05;
  params.seed = 202;
  return workload::MakeAlarmWorkload(params);
}

void BM_E2_Space(benchmark::State& state) {
  const EngineKind engine = bench::EngineFromArg(state.range(0));
  const std::size_t length = static_cast<std::size_t>(state.range(1));
  workload::Workload w = AlarmStream(length);

  std::size_t storage_rows = 0;
  std::int64_t heap_bytes = 0;
  for (auto _ : state) {
    const std::int64_t before = bench::LiveBytes();
    auto monitor = bench::MakeMonitor(w, engine);
    bench::FeedRange(monitor.get(), w, 0, w.batches.size());
    storage_rows = monitor->TotalStorageRows();
    heap_bytes = bench::LiveBytes() - before;
    benchmark::DoNotOptimize(storage_rows);
  }
  state.counters["history_len"] = static_cast<double>(length);
  state.counters["storage_rows"] = static_cast<double>(storage_rows);
  state.counters["rows_per_state"] =
      static_cast<double>(storage_rows) / static_cast<double>(length);
  state.counters["heap_live_kib"] = static_cast<double>(heap_bytes) / 1024.0;
}

void BM_E2_HeapLoanStream(benchmark::State& state) {
  const std::size_t states = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kKeys = 1000;  // patrons and books alike
  workload::Workload w;
  w.schema["Member"] = Schema({Column{"patron", ValueType::kInt64}});
  w.schema["Loan"] = Schema({Column{"patron", ValueType::kInt64},
                             Column{"book", ValueType::kInt64}});
  w.constraints = {
      {"members_only", "forall p, b: Loan(p, b) implies Member(p)"},
      {"no_quick_reloan",
       "forall p, b: Loan(p, b) implies not once[1, 5] Loan(p, b)"}};

  std::size_t storage_rows = 0;
  std::int64_t heap_bytes = 0;
  for (auto _ : state) {
    const std::int64_t before = bench::LiveBytes();
    auto monitor = bench::MakeMonitor(w, EngineKind::kIncremental);
    Rng rng(1717);
    Tuple out;  // the pair on loan since the previous state
    for (std::size_t i = 0; i < states; ++i) {
      UpdateBatch batch(static_cast<Timestamp>(i + 1));
      if (i == 0) {
        for (std::int64_t p = 0; p < kKeys; ++p) {
          batch.Insert("Member", Tuple{Value::Int64(p)});
        }
      } else {
        Tuple loan;
        do {
          loan = Tuple{Value::Int64(rng.UniformInt(0, kKeys - 1)),
                       Value::Int64(rng.UniformInt(0, kKeys - 1))};
        } while (loan == out);
        if (!out.empty()) batch.Delete("Loan", out);
        batch.Insert("Loan", loan);
        out = loan;
      }
      bench::CheckOk(monitor->ApplyUpdate(batch), "ApplyUpdate");
    }
    storage_rows = monitor->TotalStorageRows();
    heap_bytes = bench::LiveBytes() - before;
    benchmark::DoNotOptimize(storage_rows);
  }
  state.counters["history_len"] = static_cast<double>(states);
  state.counters["storage_rows"] = static_cast<double>(storage_rows);
  state.counters["heap_live_kib"] = static_cast<double>(heap_bytes) / 1024.0;
}

void BM_E2_HeapCommitStream(benchmark::State& state) {
  workload::CommitParams params;
  params.length = static_cast<std::size_t>(state.range(0));
  params.seed = 4242;
  const workload::Workload w = workload::MakeCommitProtocolWorkload(params);

  std::size_t storage_rows = 0;
  std::int64_t heap_bytes = 0;
  for (auto _ : state) {
    const std::int64_t before = bench::LiveBytes();
    auto monitor = bench::MakeMonitor(w, EngineKind::kIncremental);
    bench::FeedRange(monitor.get(), w, 0, w.batches.size());
    storage_rows = monitor->TotalStorageRows();
    heap_bytes = bench::LiveBytes() - before;
    benchmark::DoNotOptimize(storage_rows);
  }
  state.counters["history_len"] = static_cast<double>(params.length);
  state.counters["storage_rows"] = static_cast<double>(storage_rows);
  state.counters["heap_live_kib"] = static_cast<double>(heap_bytes) / 1024.0;
}

BENCHMARK(BM_E2_Space)
    ->ArgNames({"engine", "history"})
    ->Args({0, 250})
    ->Args({0, 500})
    ->Args({0, 1000})
    ->Args({0, 2000})
    ->Args({2, 250})
    ->Args({2, 500})
    ->Args({2, 1000})
    ->Args({1, 250})
    ->Args({1, 500})
    ->Args({1, 1000})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_E2_HeapLoanStream)
    ->ArgNames({"states"})
    ->Arg(5000)
    ->Arg(20000)
    ->Arg(80000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_E2_HeapCommitStream)
    ->ArgNames({"states"})
    ->Arg(5000)
    ->Arg(20000)
    ->Arg(80000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rtic
