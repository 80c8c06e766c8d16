// WAL append-path tests: what RecoveryManager::AppendBatch promises about
// fsyncs under each sync policy, concurrent appenders producing one
// contiguous log, and a kAlways monitor restarting verdict for verdict.
// The concurrent-appender test is the suite's TSan target for the append
// path.

#include <gtest/gtest.h>

#include <barrier>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "monitor/monitor.h"
#include "storage/codec.h"
#include "tests/test_util.h"
#include "wal/file.h"
#include "wal/recovery.h"
#include "wal/wal_reader.h"
#include "wal/wal_writer.h"

namespace rtic {
namespace wal {
namespace {

using ::rtic::testing::I;
using ::rtic::testing::T;
using ::rtic::testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_wal_append_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

/// Batch (thread, i): a one-insert batch whose timestamp encodes its origin,
/// so the WAL contents can be mapped back to per-thread order.
UpdateBatch ThreadBatch(std::size_t thread, std::size_t i) {
  UpdateBatch batch(static_cast<Timestamp>(thread * 1000 + i + 1));
  batch.Insert("Emp", T(I(static_cast<std::int64_t>(thread)),
                        I(static_cast<std::int64_t>(i))));
  return batch;
}

std::string Encoded(const UpdateBatch& batch) {
  StateWriter w;
  batch.EncodeTo(&w);
  return w.str();
}

/// ReplayTarget that accepts everything; these tests drive the manager's
/// append path, not replay.
class NullTarget final : public ReplayTarget {
 public:
  Status RestoreCheckpoint(const std::string&) override {
    return Status::OK();
  }
  Status Replay(const UpdateBatch&) override { return Status::OK(); }
  Result<std::string> CaptureCheckpoint() override {
    return std::string("ckpt");
  }
};

/// Wraps another Fs and counts the Sync calls on every file it hands out.
class SyncCountingFs final : public Fs {
 public:
  explicit SyncCountingFs(Fs* base) : base_(base) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    RTIC_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                          base_->NewWritableFile(path, truncate));
    return std::unique_ptr<WritableFile>(
        std::make_unique<File>(this, std::move(file)));
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

  int syncs() const { return syncs_; }

 private:
  class File final : public WritableFile {
   public:
    File(SyncCountingFs* fs, std::unique_ptr<WritableFile> base)
        : fs_(fs), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      ++fs_->syncs_;
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    SyncCountingFs* fs_;
    std::unique_ptr<WritableFile> base_;
  };

  Fs* base_;
  int syncs_ = 0;
};

// ---- fsyncs per policy -------------------------------------------------------

// A kAlways ack means an fsync: each AppendBatch has synced its record
// before it returns, one Sync per batch. kBatch and kNone never fsync on
// the append path (no rotation, no checkpoint here).
TEST(WalAppendTest, AlwaysSyncsOncePerBatchOtherPoliciesNever) {
  constexpr int kBatches = 6;
  for (const SyncPolicy policy :
       {SyncPolicy::kAlways, SyncPolicy::kBatch, SyncPolicy::kNone}) {
    SCOPED_TRACE(SyncPolicyToString(policy));
    SyncCountingFs fs(DefaultFs());
    WalOptions options;
    options.dir = MakeTempDir() + "/wal";
    options.sync_policy = policy;
    options.checkpoint_interval = 0;
    options.fs = &fs;
    NullTarget target;
    auto manager = Unwrap(RecoveryManager::Open(options, &target));
    EXPECT_EQ(fs.syncs(), 0) << "opening an empty log syncs nothing";
    for (int i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(manager->AppendBatch(ThreadBatch(0, i)));
      EXPECT_EQ(fs.syncs(), policy == SyncPolicy::kAlways ? i + 1 : 0)
          << "after batch " << i;
    }
    EXPECT_EQ(manager->last_seq(), static_cast<std::uint64_t>(kBatches));
  }
}

// ---- concurrent appenders (the TSan target) ----------------------------------

// Many threads hammer AppendBatch concurrently. Every acked batch must be
// in the log exactly once, sequence numbers must be contiguous from 1, and
// each thread's own batches must appear in its submission order.
TEST(WalAppendTest, ConcurrentAppendersProduceOneContiguousLog) {
  const std::string dir = MakeTempDir() + "/wal";
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;

  WalOptions options;
  options.dir = dir;
  options.sync_policy = SyncPolicy::kAlways;
  options.checkpoint_interval = 0;  // appends only; no checkpoint races
  NullTarget target;
  {
    auto manager = Unwrap(RecoveryManager::Open(options, &target));

    std::barrier start(kThreads);
    std::vector<Status> results(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kPerThread; ++i) {
          Status s = manager->AppendBatch(ThreadBatch(t, i));
          if (!s.ok()) {
            results[t] = s;
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const Status& s : results) RTIC_EXPECT_OK(s);

    EXPECT_EQ(manager->last_seq(), kThreads * kPerThread);
  }

  // Map every logged payload back to (thread, index) and check the log is
  // a contiguous interleaving that preserves each thread's order.
  std::map<std::string, std::pair<std::size_t, std::size_t>> origin;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      origin[Encoded(ThreadBatch(t, i))] = {t, i};
    }
  }
  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  WalReader::Record rec;
  std::uint64_t expected_seq = 0;
  std::vector<std::size_t> next_index(kThreads, 0);
  while (Unwrap(reader->Next(&rec))) {
    EXPECT_EQ(rec.seq, ++expected_seq);
    auto it = origin.find(rec.payload);
    ASSERT_NE(it, origin.end()) << "unknown payload at seq " << rec.seq;
    const auto [t, i] = it->second;
    EXPECT_EQ(i, next_index[t]) << "thread " << t << " order broken";
    ++next_index[t];
    origin.erase(it);
  }
  EXPECT_FALSE(reader->damage().has_value());
  EXPECT_EQ(expected_seq, kThreads * kPerThread);
  EXPECT_TRUE(origin.empty()) << origin.size() << " batches never logged";
}

// ---- durable monitor integration --------------------------------------------

// A kAlways monitor with periodic checkpoints survives a clean restart
// exactly like an in-memory run of the same batches.
TEST(WalAppendTest, AlwaysMonitorRecoversVerdictForVerdict) {
  const std::string dir = MakeTempDir() + "/wal";
  const std::size_t kBatches = 10;

  auto make_monitor = [&](bool durable) {
    MonitorOptions options;
    if (durable) {
      options.wal_dir = dir;
      options.sync_policy = SyncPolicy::kAlways;
      options.checkpoint_interval = 4;
    }
    auto monitor = std::make_unique<ConstraintMonitor>(std::move(options));
    RTIC_EXPECT_OK(
        monitor->CreateTable("Emp", testing::IntSchema({"id", "s"})));
    RTIC_EXPECT_OK(monitor->RegisterConstraint(
        "no_pay_cut",
        "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0"));
    return monitor;
  };
  auto make_batch = [](std::size_t i) {
    UpdateBatch batch(static_cast<Timestamp>(i + 1));
    const std::int64_t id = static_cast<std::int64_t>(i % 3);
    batch.Insert("Emp", T(I(id), I(100 - static_cast<std::int64_t>(i))));
    return batch;
  };

  auto reference = make_monitor(/*durable=*/false);
  for (std::size_t i = 0; i < kBatches; ++i) {
    RTIC_ASSERT_OK(reference->ApplyUpdate(make_batch(i)).status());
  }
  {
    auto monitor = make_monitor(/*durable=*/true);
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(make_batch(i)).status());
    }
  }
  auto recovered = make_monitor(/*durable=*/true);
  RTIC_ASSERT_OK(recovered->Recover().status());
  EXPECT_EQ(recovered->transition_count(), kBatches);
  EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()));
}

}  // namespace
}  // namespace wal
}  // namespace rtic
