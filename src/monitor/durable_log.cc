#include "monitor/durable_log.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/compress.h"
#include "common/logging.h"
#include "replication/shipper.h"
#include "replication/tcp_transport.h"

namespace rtic {
Result<std::unique_ptr<DurableLog>> DurableLog::Open(
    const MonitorOptions& options, wal::ReplayTarget* core) {
  // Older releases gave each shard of a sharded tenant its own log, in
  // <wal_dir>/shard-0, shard-1, ... and shard-coord.
  wal::Fs* fs = options.wal_fs != nullptr ? options.wal_fs : wal::DefaultFs();
  RTIC_ASSIGN_OR_RETURN(bool per_shard,
                        fs->FileExists(options.wal_dir + "/shard-0"));
  if (per_shard) {
    return Status::FailedPrecondition(
        "wal_dir " + options.wal_dir + " holds shard-0/, the per-shard "
        "layout of an older release; this build keeps one log per tenant "
        "in wal_dir itself and does not migrate it (docs/OPERATIONS.md §6)");
  }
  // Fail fast if this configuration cannot checkpoint (e.g. the naive
  // engine), before any WAL state is touched.
  RTIC_RETURN_IF_ERROR(core->CaptureCheckpoint().status());

  wal::WalOptions wal_options;
  wal_options.dir = options.wal_dir;
  wal_options.sync_policy = options.sync_policy;
  wal_options.checkpoint_interval = options.checkpoint_interval;
  wal_options.delta_chain_limit = options.checkpoint_delta_chain;
  wal_options.segment_bytes = options.wal_segment_bytes;
  wal_options.fs = options.wal_fs;

  std::unique_ptr<DurableLog> log(new DurableLog(options, core));
  RTIC_ASSIGN_OR_RETURN(log->recovery_,
                        wal::RecoveryManager::Open(wal_options, log.get()));
  if (!options.replication_standby.empty()) {
    RTIC_RETURN_IF_ERROR(log->StartShipping());
  }
  return log;
}

DurableLog::DurableLog(const MonitorOptions& options, wal::ReplayTarget* core)
    : options_(options), core_(core) {}

DurableLog::~DurableLog() { StopShipping(); }

Result<std::string> DurableLog::Capture(bool delta) {
  RTIC_ASSIGN_OR_RETURN(std::string payload,
                        delta ? core_->CaptureCheckpointDelta()
                              : core_->CaptureCheckpoint());
  if (options_.checkpoint_compression) return Compress(payload);
  return payload;
}

Status DurableLog::Append(const UpdateBatch& batch) {
  return recovery_->AppendBatch(batch);
}

void DurableLog::CheckpointIfDue() {
  if (!recovery_->ShouldCheckpoint()) return;
  // Leave the should-checkpoint state armed on failure so the next
  // accepted batch retries. (If the file system is truly gone, the next
  // batch's WAL append will surface that as its own failure.)
  Status checkpoint = WriteCheckpoint();
  if (!checkpoint.ok()) {
    RTIC_LOG(Warning) << "monitor: periodic checkpoint failed (will retry "
                         "next interval): "
                      << checkpoint.ToString();
  }
}

Status DurableLog::WriteCheckpoint() {
  auto started = std::chrono::steady_clock::now();
  wal::RecoveryManager::CheckpointPlan plan = recovery_->PlanCheckpoint();
  // A failed attempt may have burned the delta baseline (a capture resets
  // it before the write lands), so after any failure the retry falls back
  // to a self-contained snapshot.
  if (force_base_checkpoint_) plan.delta = false;
  Result<std::string> captured = Capture(plan.delta);
  if (!captured.ok()) {
    ++checkpoint_stats_.failures;
    force_base_checkpoint_ = true;
    return captured.status();
  }
  const std::string blob = std::move(captured).value();
  Status written = plan.delta
                       ? recovery_->WriteCheckpointDelta(blob, plan.parent_seq)
                       : recovery_->WriteCheckpoint(blob);
  if (!written.ok()) {
    ++checkpoint_stats_.failures;
    force_base_checkpoint_ = true;
    return written;
  }
  if (plan.delta) {
    ++checkpoint_stats_.deltas;
    checkpoint_stats_.delta_bytes += blob.size();
  } else {
    ++checkpoint_stats_.bases;
    checkpoint_stats_.base_bytes += blob.size();
    force_base_checkpoint_ = false;
  }
  const std::int64_t micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count();
  checkpoint_stats_.total_micros += micros;
  checkpoint_stats_.max_micros = std::max(checkpoint_stats_.max_micros, micros);
  checkpoint_stats_.last_micros = micros;
  return Status::OK();
}

Status DurableLog::StartShipping() {
  RTIC_ASSIGN_OR_RETURN(ship_transport_,
                        replication::TcpConnect(options_.replication_standby));
  replication::ShipperOptions ship_options;
  ship_options.dir = options_.wal_dir;
  ship_options.fs = options_.wal_fs;
  shipper_ = std::make_unique<replication::SegmentShipper>(
      ship_options, ship_transport_.get());
  RTIC_RETURN_IF_ERROR(shipper_->Start());
  ship_thread_ = std::thread([this] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(ship_mu_);
        ship_cv_.wait_for(
            lock, std::chrono::microseconds(options_.ship_interval_micros),
            [this] { return ship_stop_; });
        if (ship_stop_) break;
      }
      Status s = shipper_->ShipOnce();
      if (!s.ok()) {
        RTIC_LOG(Warning) << "replication: shipping stopped: "
                          << s.ToString();
        break;
      }
    }
  });
  return Status::OK();
}

void DurableLog::StopShipping() {
  if (!ship_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(ship_mu_);
    ship_stop_ = true;
  }
  ship_cv_.notify_all();
  ship_thread_.join();
  // Flush the WAL's buffered tail first (the recovery manager's clean
  // shutdown), then ship it: a clean primary shutdown leaves the standby
  // holding every durable record.
  const std::uint64_t last_seq = recovery_->last_seq();
  recovery_.reset();
  Status s = shipper_->ShipOnce();
  if (!s.ok()) {
    RTIC_LOG(Warning) << "replication: final shipping pass failed: "
                      << s.ToString();
  } else {
    // Wait for the standby to confirm the tail before closing: closing
    // immediately after the final send can reset the connection under the
    // standby's in-flight reply and discard its still-buffered frames.
    s = shipper_->WaitForAck(last_seq, /*timeout_micros=*/5'000'000);
    if (!s.ok()) {
      RTIC_LOG(Warning) << "replication: standby did not confirm the tail: "
                        << s.ToString();
    }
  }
  ship_transport_->Close();
}

}  // namespace rtic
