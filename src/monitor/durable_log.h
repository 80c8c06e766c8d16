// DurableLog: the one durability layer a monitor owns.
//
// Bounded history encoding makes a monitor's whole checker state one small
// blob, so durability is one checkpoint chain plus one WAL tail
// (wal/recovery.h). DurableLog runs that chain for any monitor core that
// implements wal::ReplayTarget: recovery, the WAL append, the periodic
// base/delta checkpoints with their retry, compression and statistics, and
// the log-shipping thread. ConstraintMonitor and shard::ShardedMonitor
// each own at most one, at MonitorOptions::wal_dir; a sharded tenant logs
// its batches unrouted and checkpoints one RTICSHD1 payload, so after a
// crash a batch is on every shard or on none.

#ifndef RTIC_MONITOR_DURABLE_LOG_H_
#define RTIC_MONITOR_DURABLE_LOG_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/result.h"
#include "monitor/monitor.h"
#include "storage/update_batch.h"
#include "wal/recovery.h"

namespace rtic {

namespace replication {
class SegmentShipper;
class Transport;
}  // namespace replication

class DurableLog final : private wal::ReplayTarget {
 public:
  /// Recovers `core` from options.wal_dir and arms the log. The core must
  /// already hold its tables and constraints (and have delta tracking
  /// armed when options.checkpoint_delta_chain > 0), and must outlive the
  /// log. Fails fast when the core cannot checkpoint. Fails with
  /// FailedPrecondition, changing no file, when the directory holds the
  /// per-shard layout of older releases (shard-<k>/, shard-coord/) or a
  /// base checkpoint written under another registration.
  static Result<std::unique_ptr<DurableLog>> Open(const MonitorOptions& options,
                                                  wal::ReplayTarget* core);

  /// Stops shipping after a final pass and flushes the WAL's buffered tail.
  ~DurableLog() override;

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Logs one validated batch, durable per the sync policy. On failure the
  /// caller must not apply the batch.
  Status Append(const UpdateBatch& batch);

  /// Called after each committed batch: writes the periodic checkpoint when
  /// one is due. The batch is already applied, logged and checked, so a
  /// failure is logged and retried on the next batch, never returned.
  void CheckpointIfDue();

  const wal::RecoveryStats& recovery_stats() const {
    return recovery_->stats();
  }
  const CheckpointStats& checkpoint_stats() const { return checkpoint_stats_; }

 private:
  DurableLog(const MonitorOptions& options, wal::ReplayTarget* core);

  /// The core's base (or delta) checkpoint, compressed per options.
  Result<std::string> Capture(bool delta);

  // wal::ReplayTarget for RecoveryManager::Open(): the core, whose state
  // captured to re-anchor a damaged log is compressed like any checkpoint.
  // Replay takes the core's normal commit path (constraint checks
  // included), so its auxiliary state is what an uninterrupted run holds.
  Status RestoreCheckpoint(const std::string& payload) override {
    return core_->RestoreCheckpoint(payload);
  }
  Status RestoreCheckpointDelta(const std::string& payload) override {
    return core_->RestoreCheckpointDelta(payload);
  }
  Status Replay(const UpdateBatch& batch) override {
    return core_->Replay(batch);
  }
  Result<std::string> CaptureCheckpoint() override { return Capture(false); }

  /// Builds and durably writes one checkpoint (full or delta per the
  /// recovery manager's plan, compressed per options), updating
  /// checkpoint_stats_.
  Status WriteCheckpoint();

  Status StartShipping();
  void StopShipping();

  MonitorOptions options_;
  wal::ReplayTarget* core_;
  std::unique_ptr<wal::RecoveryManager> recovery_;
  bool force_base_checkpoint_ = false;  // a failed attempt burned the baseline
  CheckpointStats checkpoint_stats_;

  // Log-shipping replication (armed by Open() when replication_standby is
  // set).
  std::unique_ptr<replication::Transport> ship_transport_;
  std::unique_ptr<replication::SegmentShipper> shipper_;
  std::mutex ship_mu_;
  std::condition_variable ship_cv_;
  bool ship_stop_ = false;  // guarded by ship_mu_
  std::thread ship_thread_;  // after everything it uses
};

}  // namespace rtic

#endif  // RTIC_MONITOR_DURABLE_LOG_H_
