// E19 — the scenario library as a benchmark suite: per-scenario checking
// throughput and violation-detection latency across engines, and the same
// workloads replayed through the open-loop driver against a live server.
//
// Claim: every family in the scenario registry is checkable at interactive
// rates by the incremental engine (with the naive engine as the per-family
// reference cost), and the open-loop driver turns each family into a
// server load test whose accepted rate tracks the offered arrival rate
// until admission control starts shedding.
//
// Three benchmarks:
//
//   BM_E19_Library — each registry scenario fed straight into an
//     in-process monitor (incremental and naive engines). Measured:
//     sustained updates/s and the latency of the applies that reported
//     violations (detection latency).
//
//   BM_E19_Server — each scenario driven through the open-loop driver
//     against a real in-memory RTIC server over one TCP session, at three
//     Poisson arrival rates. Measured: accepted/s, OVERLOADED fraction
//     (zero here: one blocking session cannot outrun the worker), and
//     detection latency through the full network round trip.
//
//   BM_E19_Overload — the freshness farm against a durable tenant whose
//     fsync is slowed to a fixed per-sync delay (same SlowSyncFs idea as
//     E15) behind a small admission queue, driven over four
//     concurrent connections. Offered load beyond the worker's drain rate
//     surfaces as an honest nonzero OVERLOADED fraction; accepted batches
//     are never lost (accepted == server-side transition count).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "server/server.h"
#include "wal/file.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace rtic {
namespace {

using server::RticClient;
using server::RticServer;
using server::ServerOptions;
using workload::ClientTarget;
using workload::DriverOptions;
using workload::DriverReport;
using workload::DriveTarget;
using workload::MakeScenario;
using workload::RunOpenLoop;
using workload::Workload;

// Registry order; scenario benchmark arg 0-4 indexes into this.
constexpr const char* kScenarios[] = {"alarm", "payroll", "library",
                                      "freshness", "commit"};

double Percentile(std::vector<double>& sorted_micros, double p) {
  if (sorted_micros.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_micros.size() - 1));
  return sorted_micros[idx];
}

// -- library path -----------------------------------------------------------

void BM_E19_Library(benchmark::State& state) {
  const char* scenario = kScenarios[state.range(0)];
  const EngineKind engine = bench::EngineFromArg(state.range(1));
  // One length for every family so engine columns are comparable; kept
  // moderate because the naive engine recomputes over stored history.
  const Workload w = bench::CheckOk(
      MakeScenario(scenario, {{"length", 160}}), "MakeScenario");

  double updates_per_sec = 0;
  double detect_p50 = 0;
  double detect_p99 = 0;
  std::size_t violations = 0;
  std::size_t aux_rows = 0;
  for (auto _ : state) {
    auto monitor = bench::MakeMonitor(w, engine);
    violations = 0;
    std::vector<double> detect;
    const auto start = std::chrono::steady_clock::now();
    for (const UpdateBatch& batch : w.batches) {
      const auto t0 = std::chrono::steady_clock::now();
      auto verdict =
          bench::CheckOk(monitor->ApplyUpdate(batch), "ApplyUpdate");
      if (!verdict.empty()) {
        detect.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        violations += verdict.size();
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::sort(detect.begin(), detect.end());
    updates_per_sec = static_cast<double>(w.batches.size()) / elapsed;
    detect_p50 = Percentile(detect, 0.50);
    detect_p99 = Percentile(detect, 0.99);
    aux_rows = monitor->TotalStorageRows();
    state.SetIterationTime(elapsed);
  }

  state.SetLabel(scenario);
  state.counters["updates_per_sec"] = updates_per_sec;
  state.counters["violations"] = static_cast<double>(violations);
  state.counters["aux_rows"] = static_cast<double>(aux_rows);
  state.counters["detect_p50_us"] = detect_p50;
  state.counters["detect_p99_us"] = detect_p99;
}

BENCHMARK(BM_E19_Library)
    ->ArgNames({"scenario", "engine"})
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// -- server path ------------------------------------------------------------

void BM_E19_Server(benchmark::State& state) {
  const char* scenario = kScenarios[state.range(0)];
  const double rate = static_cast<double>(state.range(1));
  const Workload w =
      bench::CheckOk(MakeScenario(scenario, {}), "MakeScenario");

  DriverReport report;
  for (auto _ : state) {
    auto server = bench::CheckOk(RticServer::Start(ServerOptions{}),
                                 "server Start");
    auto client = bench::CheckOk(
        RticClient::Connect(server->address(), "bench"), "Connect");
    ClientTarget target(client.get());
    bench::CheckOk(target.Install(w), "Install");

    DriverOptions options;
    options.rate_per_sec = rate;
    options.record_transcript = false;
    report = bench::CheckOk(RunOpenLoop(w, &target, options), "RunOpenLoop");

    client->Close();
    server->Stop();
    state.SetIterationTime(report.elapsed_seconds);
  }

  state.SetLabel(scenario);
  state.counters["rate_per_sec"] = rate;
  state.counters["accepted_per_sec"] = report.accepted_per_sec;
  state.counters["overloaded_pct"] =
      report.offered == 0
          ? 0.0
          : 100.0 * static_cast<double>(report.overloaded) /
                static_cast<double>(report.offered);
  state.counters["violations"] = static_cast<double>(report.violations);
  state.counters["detect_p50_us"] = report.detect_p50_micros;
  state.counters["detect_p99_us"] = report.detect_p99_micros;
}

BENCHMARK(BM_E19_Server)
    ->ArgNames({"scenario", "rate"})
    ->ArgsProduct({{0, 1, 2, 3, 4}, {500, 2000, 8000}})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// -- durable overload -------------------------------------------------------

/// Every Sync costs a fixed delay, pinning the durable worker's drain rate
/// well below the offered load (machine-independent; same device as E15).
class SlowSyncFs final : public wal::Fs {
 public:
  SlowSyncFs(wal::Fs* base, int sync_micros)
      : base_(base), sync_micros_(sync_micros) {}

  Result<std::unique_ptr<wal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto base = base_->NewWritableFile(path, truncate);
    if (!base.ok()) return base.status();
    return std::unique_ptr<wal::WritableFile>(
        std::make_unique<File>(std::move(base).value(), sync_micros_));
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status Truncate(const std::string& path, std::uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  class File final : public wal::WritableFile {
   public:
    File(std::unique_ptr<wal::WritableFile> base, int sync_micros)
        : base_(std::move(base)), sync_micros_(sync_micros) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::microseconds(sync_micros_));
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<wal::WritableFile> base_;
    const int sync_micros_;
  };

  wal::Fs* base_;
  const int sync_micros_;
};

/// DriveTarget that owns its RticClient (one per driver connection).
struct OwningTarget final : DriveTarget {
  explicit OwningTarget(std::unique_ptr<RticClient> c)
      : client(std::move(c)), target(client.get()) {}
  Status Install(const Workload& workload) override {
    return target.Install(workload);
  }
  Result<workload::DriveOutcome> Apply(const UpdateBatch& batch) override {
    return target.Apply(batch);
  }
  std::unique_ptr<RticClient> client;
  ClientTarget target;
};

void BM_E19_Overload(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  constexpr int kSyncMicros = 2000;  // worker drains at most ~500 batches/s
  const Workload w =
      bench::CheckOk(MakeScenario("freshness", {}), "MakeScenario");

  DriverReport report;
  for (auto _ : state) {
    char tmpl[] = "/tmp/rtic_bench_e19_XXXXXX";
    char* root = mkdtemp(tmpl);
    if (root == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    SlowSyncFs slow(wal::DefaultFs(), kSyncMicros);
    ServerOptions server_options;
    server_options.queue_capacity = 4;
    server_options.monitor_options.wal_dir = root;
    server_options.monitor_options.wal_fs = &slow;
    server_options.monitor_options.sync_policy = wal::SyncPolicy::kAlways;
    server_options.monitor_options.checkpoint_interval = 0;
    auto server = bench::CheckOk(RticServer::Start(std::move(server_options)),
                                 "server Start");
    auto setup = bench::CheckOk(
        RticClient::Connect(server->address(), "bench"), "setup Connect");
    ClientTarget install(setup.get());
    bench::CheckOk(install.Install(w), "Install");

    DriverOptions options;
    options.rate_per_sec = rate;
    options.connections = 8;  // > queue_capacity, so the queue can overflow
    options.server_timestamps = true;  // interleaved sends; server clocks
    options.record_transcript = false;
    const std::string address = server->address();
    auto factory = [&address]() -> Result<std::unique_ptr<DriveTarget>> {
      auto client = RticClient::Connect(address, "bench");
      if (!client.ok()) return client.status();
      return std::unique_ptr<DriveTarget>(
          new OwningTarget(std::move(*client)));
    };
    report = bench::CheckOk(RunOpenLoop(w, factory, options), "RunOpenLoop");

    // Admission-control invariant: accepted batches are never lost.
    auto stats = bench::CheckOk(setup->GetStats(), "GetStats");
    if (stats.transition_count != report.accepted) {
      state.SkipWithError("accepted batches lost");
      return;
    }
    setup->Close();
    server->Stop();
    state.SetIterationTime(report.elapsed_seconds);
    std::filesystem::remove_all(root);
  }

  state.SetLabel("freshness");
  state.counters["rate_per_sec"] = rate;
  state.counters["accepted_per_sec"] = report.accepted_per_sec;
  state.counters["overloaded_pct"] =
      report.offered == 0
          ? 0.0
          : 100.0 * static_cast<double>(report.overloaded) /
                static_cast<double>(report.offered);
}

BENCHMARK(BM_E19_Overload)
    ->ArgName("rate")
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rtic
