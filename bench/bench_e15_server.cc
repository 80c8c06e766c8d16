// E15 — server throughput and tail latency vs concurrent TCP clients,
// plus admission-control behavior under deliberate overload.
//
// Claim: the server's per-tenant single-worker design serializes checking
// (so adding clients cannot beat the monitor's own apply rate) but keeps
// the front-end cost per request roughly flat — sustained updates/s holds
// as clients grow from 1 to 32, with tail latency growing linearly in the
// queue depth ahead of each request. Under a deliberately slowed durable
// monitor, admission control converts excess offered load into immediate
// OVERLOADED responses at a bounded queue, instead of unbounded buffering.
//
// Two benchmarks:
//
//   BM_E15_ClosedLoop — N closed-loop clients (each waits for its verdict
//     before sending the next batch) over real TCP sessions on one tenant,
//     in-memory monitor. Measured: sustained updates/s (all clients
//     together) and p50/p99 per-request latency.
//
//   BM_E15_OpenLoopOverload — N clients fire at a durable tenant whose
//     fsync is slowed to a fixed per-sync delay (SlowSyncFs below) behind
//     a small admission queue. Offered load exceeds the
//     worker's drain rate by construction; counters report the accepted
//     rate and the OVERLOADED fraction. No batch that was accepted is
//     lost: accepted == server-side transition count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "wal/file.h"

namespace rtic {
namespace {

using server::RticClient;
using server::RticServer;
using server::ServerOptions;

constexpr char kNoPayCut[] =
    "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0";

Status SetUpPayroll(RticClient* client) {
  RTIC_RETURN_IF_ERROR(
      client->CreateTable("Emp", testing::IntSchema({"e", "s"})));
  return client->RegisterConstraint("no_pay_cut", kNoPayCut);
}

UpdateBatch EmpBatch(std::int64_t employee, std::int64_t salary) {
  UpdateBatch batch;  // timestamp 0: the server assigns
  batch.Insert("Emp", testing::T(testing::I(employee), testing::I(salary)));
  return batch;
}

// Replaces the employee's row instead of accumulating one per batch, so
// table size (and per-apply cost) stays flat and the measurement isolates
// the front-end, not state growth.
UpdateBatch EmpRaise(std::int64_t employee, std::int64_t old_salary,
                     std::int64_t new_salary) {
  UpdateBatch batch = EmpBatch(employee, new_salary);
  batch.Delete("Emp", testing::T(testing::I(employee), testing::I(old_salary)));
  return batch;
}

double Percentile(std::vector<double>& sorted_micros, double p) {
  if (sorted_micros.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_micros.size() - 1));
  return sorted_micros[idx];
}

// -- closed loop ------------------------------------------------------------

void BM_E15_ClosedLoop(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kBatchesPerClient = 64;

  double updates_per_sec = 0;
  double p50 = 0;
  double p99 = 0;
  for (auto _ : state) {
    auto server = bench::CheckOk(RticServer::Start(ServerOptions{}),
                                 "server Start");
    {
      auto setup = bench::CheckOk(
          RticClient::Connect(server->address(), "bench"), "setup Connect");
      bench::CheckOk(SetUpPayroll(setup.get()), "setup");
    }

    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([c, &server, &latencies] {
        auto client = bench::CheckOk(
            RticClient::Connect(server->address(), "bench"), "Connect");
        latencies[c].reserve(kBatchesPerClient);
        for (int j = 0; j < kBatchesPerClient; ++j) {
          const auto t0 = std::chrono::steady_clock::now();
          auto applied = bench::CheckOk(
              client->Apply(j == 0 ? EmpBatch(c, 100'000)
                                   : EmpRaise(c, 100'000 + j - 1,
                                              100'000 + j)),
              "Apply");
          latencies[c].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          if (applied.overloaded) {
            std::fprintf(stderr, "unexpected overload in closed loop\n");
            std::abort();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    server->Stop();

    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    updates_per_sec = static_cast<double>(all.size()) / elapsed;
    p50 = Percentile(all, 0.50);
    p99 = Percentile(all, 0.99);
    state.SetIterationTime(elapsed);
  }

  state.counters["clients"] = clients;
  state.counters["updates_per_sec"] = updates_per_sec;
  state.counters["lat_p50_us"] = p50;
  state.counters["lat_p99_us"] = p99;
}

BENCHMARK(BM_E15_ClosedLoop)
    ->ArgName("clients")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// -- open loop under overload -----------------------------------------------

/// Every Sync costs a fixed delay, pinning the durable worker's drain rate
/// well below the offered load on any machine.
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

void BM_E15_OpenLoopOverload(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kBatchesPerClient = 32;
  constexpr int kSyncMicros = 2000;  // worker drains at most ~500 batches/s

  double accepted_per_sec = 0;
  double overloaded_pct = 0;
  for (auto _ : state) {
    char tmpl[] = "/tmp/rtic_bench_e15_XXXXXX";
    char* root = mkdtemp(tmpl);
    if (root == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    SlowSyncFs slow(wal::DefaultFs(), kSyncMicros);
    ServerOptions options;
    options.queue_capacity = 4;
    options.monitor_options.wal_dir = root;
    options.monitor_options.wal_fs = &slow;
    options.monitor_options.sync_policy = wal::SyncPolicy::kAlways;
    options.monitor_options.checkpoint_interval = 0;
    auto server = bench::CheckOk(RticServer::Start(std::move(options)),
                                 "server Start");
    auto setup = bench::CheckOk(
        RticClient::Connect(server->address(), "bench"), "setup Connect");
    bench::CheckOk(SetUpPayroll(setup.get()), "setup");
    // One durable apply up front runs the tenant's lazy Recover() outside
    // the measured window.
    bench::CheckOk(setup->Apply(EmpBatch(0, 1)), "first apply");

    std::atomic<int> accepted{0};
    std::atomic<int> overloaded{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([c, &server, &accepted, &overloaded] {
        auto client = bench::CheckOk(
            RticClient::Connect(server->address(), "bench"), "Connect");
        for (int j = 0; j < kBatchesPerClient; ++j) {
          auto applied = bench::CheckOk(
              client->Apply(EmpBatch(c + 1, 100 + j)), "Apply");
          if (applied.overloaded) {
            ++overloaded;  // open loop: drop and move on, no retry
          } else {
            ++accepted;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Admission-control invariant: accepted batches are never lost.
    auto stats = bench::CheckOk(setup->GetStats(), "GetStats");
    const auto expected =
        static_cast<std::uint64_t>(accepted.load()) + 1;  // + first apply
    if (stats.transition_count != expected) {
      state.SkipWithError("accepted batches lost");
      return;
    }
    server->Stop();

    const int total = clients * kBatchesPerClient;
    accepted_per_sec = static_cast<double>(accepted.load()) / elapsed;
    overloaded_pct =
        100.0 * static_cast<double>(overloaded.load()) / total;
    state.SetIterationTime(elapsed);
    std::filesystem::remove_all(root);
  }

  state.counters["clients"] = clients;
  state.counters["accepted_per_sec"] = accepted_per_sec;
  state.counters["overloaded_pct"] = overloaded_pct;
}

BENCHMARK(BM_E15_OpenLoopOverload)
    ->ArgName("clients")
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rtic
