// Recovery tests: the durable monitor's restart path (checkpoint + WAL tail)
// and the RecoveryManager's edge cases — empty directories, checkpoints
// without logs, logs without checkpoints, damaged tails, duplicate sequence
// numbers, and garbage collection.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "storage/codec.h"
#include "tests/test_util.h"
#include "wal/file.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"

namespace rtic {
namespace {

using testing::I;
using testing::T;
using testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_recovery_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

MonitorOptions DurableOptions(const std::string& dir, std::size_t interval) {
  MonitorOptions options;
  options.wal_dir = dir;
  options.checkpoint_interval = interval;
  options.sync_policy = wal::SyncPolicy::kBatch;
  return options;
}

/// A monitor with one table and one temporal constraint; every instance is
/// configured identically so checkpoints are comparable byte-for-byte.
std::unique_ptr<ConstraintMonitor> MakeMonitor(MonitorOptions options) {
  auto monitor = std::make_unique<ConstraintMonitor>(std::move(options));
  RTIC_EXPECT_OK(monitor->CreateTable("Emp", testing::IntSchema({"id", "s"})));
  RTIC_EXPECT_OK(monitor->RegisterConstraint(
      "no_pay_cut",
      "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0"));
  return monitor;
}

/// Deterministic workload batch i (timestamps 1, 2, ...), with occasional
/// salary cuts so some transitions violate the constraint.
UpdateBatch MakeBatch(std::size_t i) {
  UpdateBatch batch(static_cast<Timestamp>(i + 1));
  const std::int64_t id = static_cast<std::int64_t>(i % 5);
  batch.Delete("Emp", T(I(id), I(1000 - static_cast<std::int64_t>(i) + 5)));
  batch.Insert("Emp", T(I(id), I(1000 - static_cast<std::int64_t>(i))));
  return batch;
}

// ---- durable monitor ---------------------------------------------------------

TEST(DurableMonitorTest, FreshDirectoryStartsEmpty) {
  const std::string dir = MakeTempDir();
  auto monitor = MakeMonitor(DurableOptions(dir + "/wal", 4));
  wal::RecoveryStats stats = Unwrap(monitor->Recover());
  EXPECT_EQ(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.last_seq, 0u);
  EXPECT_EQ(stats.replayed_batches, 0u);
  EXPECT_FALSE(stats.tail_damaged);
  RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(0)).status());
  EXPECT_EQ(monitor->transition_count(), 1u);
}

TEST(DurableMonitorTest, RequiresRecoverBeforeApply) {
  const std::string dir = MakeTempDir();
  auto monitor = MakeMonitor(DurableOptions(dir + "/wal", 4));
  Result<std::vector<Violation>> r = monitor->ApplyUpdate(MakeBatch(0));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DurableMonitorTest, RecoverTwiceFails) {
  const std::string dir = MakeTempDir();
  auto monitor = MakeMonitor(DurableOptions(dir + "/wal", 4));
  RTIC_ASSERT_OK(monitor->Recover().status());
  EXPECT_EQ(monitor->Recover().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DurableMonitorTest, RecoverWithoutWalDirFails) {
  auto monitor = MakeMonitor(MonitorOptions{});
  EXPECT_EQ(monitor->Recover().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DurableMonitorTest, NaiveEngineCannotBeDurable) {
  const std::string dir = MakeTempDir();
  MonitorOptions options = DurableOptions(dir + "/wal", 4);
  options.engine = EngineKind::kNaive;
  auto monitor = MakeMonitor(std::move(options));
  EXPECT_EQ(monitor->Recover().status().code(), StatusCode::kUnimplemented);
}

TEST(DurableMonitorTest, RestartReplaysTailAndMatchesUninterruptedRun) {
  const std::string dir = MakeTempDir() + "/wal";
  const std::size_t kBatches = 30;

  // Reference: plain in-memory monitor over the same workload.
  auto reference = MakeMonitor(MonitorOptions{});
  for (std::size_t i = 0; i < kBatches; ++i) {
    RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(i)).status());
  }

  {
    auto monitor = MakeMonitor(DurableOptions(dir, 8));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
    // Destroyed mid-flight: 30 batches = 3 checkpoints (at 8, 16, 24) plus
    // a 6-batch WAL tail.
  }

  auto recovered = MakeMonitor(DurableOptions(dir, 8));
  wal::RecoveryStats stats = Unwrap(recovered->Recover());
  EXPECT_EQ(stats.checkpoint_seq, 24u);
  EXPECT_EQ(stats.last_seq, 30u);
  EXPECT_EQ(stats.replayed_batches, 6u);
  EXPECT_FALSE(stats.tail_damaged);
  EXPECT_EQ(recovered->transition_count(), kBatches);
  EXPECT_EQ(recovered->current_time(), reference->current_time());
  EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()))
      << "recovered state must be byte-identical to the uninterrupted run";

  // And the recovered monitor keeps going.
  RTIC_ASSERT_OK(recovered->ApplyUpdate(MakeBatch(kBatches)).status());
}

TEST(DurableMonitorTest, CheckpointWithNoWalTail) {
  const std::string dir = MakeTempDir() + "/wal";
  const std::size_t kBatches = 8;
  {
    auto monitor = MakeMonitor(DurableOptions(dir, kBatches));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
    // The last batch checkpointed and GC'd every segment: only the
    // checkpoint file remains.
  }
  std::vector<std::string> names = Unwrap(wal::DefaultFs()->ListDir(dir));
  EXPECT_EQ(names,
            (std::vector<std::string>{wal::CheckpointFileName(kBatches)}));

  auto recovered = MakeMonitor(DurableOptions(dir, kBatches));
  wal::RecoveryStats stats = Unwrap(recovered->Recover());
  EXPECT_EQ(stats.checkpoint_seq, kBatches);
  EXPECT_EQ(stats.replayed_batches, 0u);
  EXPECT_EQ(recovered->transition_count(), kBatches);
}

TEST(DurableMonitorTest, WalWithNoCheckpointReplaysEverything) {
  const std::string dir = MakeTempDir() + "/wal";
  const std::size_t kBatches = 12;
  {
    auto monitor = MakeMonitor(DurableOptions(dir, /*interval=*/0));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
  }
  auto recovered = MakeMonitor(DurableOptions(dir, 0));
  wal::RecoveryStats stats = Unwrap(recovered->Recover());
  EXPECT_EQ(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.replayed_batches, kBatches);
  EXPECT_EQ(recovered->transition_count(), kBatches);
}

TEST(DurableMonitorTest, TornTailIsTruncatedAndReanchored) {
  const std::string dir = MakeTempDir() + "/wal";
  const std::size_t kBatches = 10;
  auto reference = MakeMonitor(MonitorOptions{});
  {
    auto monitor = MakeMonitor(DurableOptions(dir, /*interval=*/0));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
      RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(i)).status());
    }
  }
  // Simulate a crash mid-append: glue half a record onto the segment.
  std::vector<std::string> names = Unwrap(wal::DefaultFs()->ListDir(dir));
  ASSERT_EQ(names.size(), 1u);
  std::string torn = wal::EncodeRecord(kBatches + 1, "never finished");
  torn.resize(torn.size() / 2);
  {
    auto f = Unwrap(
        wal::DefaultFs()->NewWritableFile(dir + "/" + names[0], false));
    RTIC_ASSERT_OK(f->Append(torn));
    RTIC_ASSERT_OK(f->Close());
  }

  auto recovered = MakeMonitor(DurableOptions(dir, 0));
  wal::RecoveryStats stats = Unwrap(recovered->Recover());
  EXPECT_TRUE(stats.tail_damaged);
  EXPECT_EQ(stats.truncated_bytes, torn.size());
  EXPECT_EQ(stats.replayed_batches, kBatches);
  EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()));

  // The damaged tail was truncated and the log re-anchored: a further
  // restart must be clean.
  auto again = MakeMonitor(DurableOptions(dir, 0));
  wal::RecoveryStats stats2 = Unwrap(again->Recover());
  EXPECT_FALSE(stats2.tail_damaged);
  EXPECT_EQ(again->transition_count(), kBatches);
}

TEST(DurableMonitorTest, TimestampsStayMonotonicAcrossRecovery) {
  const std::string dir = MakeTempDir() + "/wal";
  {
    auto monitor = MakeMonitor(DurableOptions(dir, 4));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < 6; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
  }
  auto recovered = MakeMonitor(DurableOptions(dir, 4));
  RTIC_ASSERT_OK(recovered->Recover().status());
  EXPECT_EQ(recovered->current_time(), 6);
  // A stale or equal timestamp is rejected exactly as in one uninterrupted
  // run.
  EXPECT_EQ(recovered->ApplyUpdate(UpdateBatch(6)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(recovered->ApplyUpdate(UpdateBatch(3)).status().code(),
            StatusCode::kInvalidArgument);
  RTIC_ASSERT_OK(recovered->ApplyUpdate(UpdateBatch(7)).status());
}

TEST(DurableMonitorTest, GarbageCollectionBoundsFileCount) {
  const std::string dir = MakeTempDir() + "/wal";
  MonitorOptions options = DurableOptions(dir, 4);
  options.wal_segment_bytes = 1;  // rotate after every record
  // Full snapshots only: every checkpoint covers the whole log, so GC can
  // reclaim everything older. (The chain-aware bound with deltas enabled
  // is covered in checkpoint_delta_test.cc.)
  options.checkpoint_delta_chain = 0;
  auto monitor = MakeMonitor(std::move(options));
  RTIC_ASSERT_OK(monitor->Recover().status());
  for (std::size_t i = 0; i < 100; ++i) {
    RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
  }
  std::vector<std::string> names = Unwrap(wal::DefaultFs()->ListDir(dir));
  // At most one checkpoint plus the <= 4 segments since it.
  EXPECT_LE(names.size(), 5u) << "GC must bound the directory size";
}

TEST(DurableMonitorTest, StatsStayConsistentAcrossRecovery) {
  const std::string dir = MakeTempDir() + "/wal";
  const std::size_t kBatches = 30;  // checkpoint at 8/16/24 + 6-batch tail

  std::vector<ConstraintStats> want;
  std::size_t want_total = 0;
  {
    auto monitor = MakeMonitor(DurableOptions(dir, 8));
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < kBatches; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
    want = monitor->Stats();
    want_total = monitor->total_violations();
    ASSERT_GT(want_total, 0u) << "the workload must violate";
  }

  auto recovered = MakeMonitor(DurableOptions(dir, 8));
  RTIC_ASSERT_OK(recovered->Recover().status());
  EXPECT_EQ(recovered->total_violations(), want_total);
  const std::vector<ConstraintStats> got = recovered->Stats();
  ASSERT_EQ(got.size(), want.size());
  std::size_t violation_sum = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].transitions, want[i].transitions)
        << got[i].name << ": replayed-tail-only counters mean the "
        << "checkpoint dropped them";
    EXPECT_EQ(got[i].violations, want[i].violations) << got[i].name;
    violation_sum += got[i].violations;
  }
  EXPECT_EQ(violation_sum, recovered->total_violations())
      << "Stats() must sum to total_violations() after recovery";
}

// Recovery restores shared subplans shared: a restarted durable monitor
// with duplicate and overlapping constraints reports the same coalesced
// handles as before the restart, and keeps checking like it.
TEST(DurableMonitorTest, SharedSubplansSurviveRecovery) {
  const std::string dir = MakeTempDir() + "/wal";
  auto make = [&] {
    auto monitor = MakeMonitor(DurableOptions(dir, 8));
    RTIC_EXPECT_OK(monitor->RegisterConstraint(
        "no_pay_cut_copy",
        "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0"));
    RTIC_EXPECT_OK(monitor->RegisterConstraint(
        "paid_before", "forall e, s0: previous Emp(e, s0) implies s0 > 0"));
    return monitor;
  };
  auto coalesced = [](const ConstraintMonitor& m) {
    std::vector<std::size_t> out;
    for (const ConstraintStats& s : m.Stats()) out.push_back(s.shared_subplans);
    return out;
  };
  std::vector<std::size_t> want;
  std::string final_state;
  {
    auto monitor = make();
    RTIC_ASSERT_OK(monitor->Recover().status());
    for (std::size_t i = 0; i < 30; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
    want = coalesced(*monitor);
    EXPECT_EQ(want, (std::vector<std::size_t>{0, 2, 1}));
    for (std::size_t i = 30; i < 40; ++i) {
      RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
    }
    final_state = Unwrap(monitor->SaveState());
  }

  // Installs the base+delta checkpoint chain (one every 8 batches).
  auto recovered = make();
  wal::RecoveryStats stats = Unwrap(recovered->Recover());
  EXPECT_GT(stats.checkpoint_seq, 0u);
  EXPECT_EQ(coalesced(*recovered), want);
  EXPECT_EQ(Unwrap(recovered->SaveState()), final_state);
}

/// Fails the first Rename (the checkpoint's atomic install step), then
/// works again — a transient failure that must not cost the batch its
/// verdicts.
class FailRenameOnceFs final : public wal::Fs {
 public:
  explicit FailRenameOnceFs(wal::Fs* base) : base_(base) {}

  Result<std::unique_ptr<wal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    return base_->NewWritableFile(path, truncate);
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
    if (!failed_) {
      failed_ = true;
      return Status::Internal("transient rename failure");
    }
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Truncate(const std::string& path, std::uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

  bool failed() const { return failed_; }

 private:
  wal::Fs* base_;
  bool failed_ = false;
};

// A failed periodic checkpoint at the end of ApplyUpdate must not discard
// the batch's computed violations (the batch is already applied, logged,
// and checked); it is logged and retried at the next accepted batch.
TEST(DurableMonitorTest, FailedPeriodicCheckpointKeepsVerdictsAndRetries) {
  const std::string dir = MakeTempDir() + "/wal";
  FailRenameOnceFs fs(wal::DefaultFs());

  auto reference = MakeMonitor(MonitorOptions{});
  MonitorOptions options = DurableOptions(dir, /*interval=*/6);
  options.wal_fs = &fs;
  auto monitor = MakeMonitor(std::move(options));
  RTIC_ASSERT_OK(monitor->Recover().status());

  // Batches 0..4 are clean; batch 5 is the 6th accepted batch — it both
  // violates the constraint AND triggers the periodic checkpoint, whose
  // install rename fails.
  for (std::size_t i = 0; i < 5; ++i) {
    RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(i)).status());
    RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(i)).status());
  }
  std::vector<Violation> want = Unwrap(reference->ApplyUpdate(MakeBatch(5)));
  ASSERT_FALSE(want.empty()) << "batch 5 must violate for this test to bite";
  Result<std::vector<Violation>> got = monitor->ApplyUpdate(MakeBatch(5));
  ASSERT_TRUE(got.ok())
      << "a retryable checkpoint failure must not fail the batch: "
      << got.status().ToString();
  EXPECT_TRUE(fs.failed()) << "the checkpoint install never ran";
  ASSERT_EQ(got.value().size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(got.value()[v].ToString(), want[v].ToString());
  }

  // The next accepted batch retries the checkpoint, and this time the
  // rename goes through.
  RTIC_ASSERT_OK(reference->ApplyUpdate(MakeBatch(6)).status());
  RTIC_ASSERT_OK(monitor->ApplyUpdate(MakeBatch(6)).status());
  monitor.reset();

  auto recovered = MakeMonitor(DurableOptions(dir, 6));
  wal::RecoveryStats stats = Unwrap(recovered->Recover());
  EXPECT_EQ(stats.checkpoint_seq, 7u) << "the retried checkpoint must land";
  EXPECT_EQ(recovered->transition_count(), 7u);
  EXPECT_EQ(Unwrap(recovered->SaveState()), Unwrap(reference->SaveState()));
}

// ---- RecoveryManager edge cases ---------------------------------------------

/// Records every callback; checkpoints are opaque strings.
class FakeTarget final : public wal::ReplayTarget {
 public:
  Status RestoreCheckpoint(const std::string& payload) override {
    restored = payload;
    return Status::OK();
  }
  Status Replay(const UpdateBatch& batch) override {
    replayed.push_back(batch.timestamp());
    return Status::OK();
  }
  Result<std::string> CaptureCheckpoint() override {
    return std::string("fake-checkpoint");
  }

  std::string restored;
  std::vector<Timestamp> replayed;
};

std::string EncodedBatch(std::size_t i) {
  StateWriter w;
  MakeBatch(i).EncodeTo(&w);
  return w.str();
}

void WriteWholeFile(const std::string& path, std::string_view data) {
  auto f = Unwrap(wal::DefaultFs()->NewWritableFile(path, true));
  RTIC_ASSERT_OK(f->Append(data));
  RTIC_ASSERT_OK(f->Close());
}

wal::WalOptions Opts(const std::string& dir) {
  wal::WalOptions options;
  options.dir = dir;
  return options;
}

TEST(RecoveryManagerTest, DuplicateSequenceNumbersTruncateTheTail) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(dir + "/" + wal::SegmentFileName(1),
                 wal::EncodeRecord(1, EncodedBatch(0)) +
                     wal::EncodeRecord(2, EncodedBatch(1)) +
                     wal::EncodeRecord(2, EncodedBatch(1)));
  FakeTarget target;
  auto manager = Unwrap(wal::RecoveryManager::Open(Opts(dir), &target));
  EXPECT_EQ(target.replayed, (std::vector<Timestamp>{1, 2}));
  EXPECT_TRUE(manager->stats().tail_damaged);
  EXPECT_EQ(manager->last_seq(), 2u);
  // The truncation re-anchored the log with a fresh checkpoint.
  EXPECT_EQ(manager->checkpoint_seq(), 2u);
  EXPECT_TRUE(Unwrap(wal::DefaultFs()->FileExists(
      dir + "/" + wal::CheckpointFileName(2))));
}

TEST(RecoveryManagerTest, UndecodablePayloadIsDamageNotACrash) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(dir + "/" + wal::SegmentFileName(1),
                 wal::EncodeRecord(1, EncodedBatch(0)) +
                     wal::EncodeRecord(2, "not a batch at all"));
  FakeTarget target;
  auto manager = Unwrap(wal::RecoveryManager::Open(Opts(dir), &target));
  EXPECT_EQ(target.replayed, (std::vector<Timestamp>{1}));
  EXPECT_TRUE(manager->stats().tail_damaged);
  EXPECT_EQ(manager->last_seq(), 1u);
}

TEST(RecoveryManagerTest, GapBetweenCheckpointAndLogFails) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(dir + "/" + wal::CheckpointFileName(5),
                 wal::EncodeRecord(5, "state"));
  WriteWholeFile(dir + "/" + wal::SegmentFileName(7),
                 wal::EncodeRecord(7, EncodedBatch(6)));
  FakeTarget target;
  Result<std::unique_ptr<wal::RecoveryManager>> manager =
      wal::RecoveryManager::Open(Opts(dir), &target);
  EXPECT_EQ(manager.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryManagerTest, CorruptCheckpointFallsBackToOlderOne) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(dir + "/" + wal::CheckpointFileName(1),
                 wal::EncodeRecord(1, "old-state"));
  std::string corrupt = wal::EncodeRecord(2, "new-state");
  corrupt[4] ^= 0x01;  // break the checksum
  WriteWholeFile(dir + "/" + wal::CheckpointFileName(2), corrupt);
  WriteWholeFile(dir + "/" + wal::SegmentFileName(2),
                 wal::EncodeRecord(2, EncodedBatch(1)));
  FakeTarget target;
  auto manager = Unwrap(wal::RecoveryManager::Open(Opts(dir), &target));
  EXPECT_EQ(target.restored, "old-state");
  EXPECT_EQ(target.replayed, (std::vector<Timestamp>{2}));
  EXPECT_FALSE(Unwrap(wal::DefaultFs()->FileExists(
      dir + "/" + wal::CheckpointFileName(2))))
      << "the corrupt checkpoint must be removed";
}

TEST(RecoveryManagerTest, LeftoverTempFilesAreRemoved) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(dir + "/" + wal::CheckpointFileName(9) + wal::kTempSuffix,
                 "half-written");
  FakeTarget target;
  auto manager = Unwrap(wal::RecoveryManager::Open(Opts(dir), &target));
  EXPECT_EQ(manager->stats().removed_files, 1u);
  EXPECT_EQ(Unwrap(wal::DefaultFs()->ListDir(dir)).size(), 0u);
}

}  // namespace
}  // namespace rtic
