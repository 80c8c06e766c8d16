// RecoveryManager: the durability engine behind DurableLog
// (monitor/durable_log.h), the one log a ConstraintMonitor or a
// ShardedMonitor owns.
//
// Bounded history encoding (the paper's central property) makes the whole
// checker state a small, self-contained blob, so durability is simply
//
//   checkpoint (one framed record = the monitor's SaveState)
//     + WAL tail (the UpdateBatches applied since that checkpoint)
//
// and recovery is O(checkpoint size + tail length) — never a replay of the
// full history. The manager owns that lifecycle: on Open() it restores the
// newest valid checkpoint, replays the WAL tail through a ReplayTarget,
// truncates any torn/corrupt suffix (logged, never fatal), and afterwards
// appends each accepted batch to the log and periodically rewrites the
// checkpoint, garbage-collecting fully-covered segments.

#ifndef RTIC_WAL_RECOVERY_H_
#define RTIC_WAL_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "storage/update_batch.h"
#include "wal/file.h"
#include "wal/wal_writer.h"

namespace rtic {
namespace wal {

/// Durability configuration (mirrored by MonitorOptions).
struct WalOptions {
  /// Directory holding segment and checkpoint files; created if absent.
  std::string dir;
  SyncPolicy sync_policy = SyncPolicy::kBatch;
  /// Batches between checkpoints; 0 disables periodic checkpointing.
  std::size_t checkpoint_interval = 64;
  /// Maximum delta checkpoints chained onto one base snapshot before
  /// PlanCheckpoint() forces a new base. 0 disables delta checkpoints
  /// (every checkpoint is a full base, the pre-RTICMON3 behavior). Larger
  /// values bound checkpoint cost by churn for longer, at the price of
  /// recovery installing a longer chain and segment GC retaining the WAL
  /// back to the base.
  std::size_t delta_chain_limit = 8;
  /// Segment rotation threshold in bytes.
  std::size_t segment_bytes = 4u << 20;
  /// File system to use; nullptr means DefaultFs(). Tests substitute a
  /// FaultInjectingFs here.
  Fs* fs = nullptr;
};

/// What Open() found and did.
struct RecoveryStats {
  std::uint64_t checkpoint_seq = 0;  // 0: started without a checkpoint
  std::uint64_t last_seq = 0;        // newest durable record (0: empty log)
  std::size_t replayed_batches = 0;  // WAL-tail records replayed
  bool tail_damaged = false;         // a torn/corrupt tail was truncated
  std::uint64_t truncated_bytes = 0;  // bytes cut from the damaged file
  std::size_t removed_files = 0;      // temp leftovers, damaged or GC'd files
  std::size_t checkpoint_chain = 0;   // checkpoint files installed (0 = none,
                                      // 1 = base only, n = base + n-1 deltas)
};

/// What the RecoveryManager replays into. ConstraintMonitor and
/// ShardedMonitor implement it for their DurableLog; tests use lightweight
/// fakes.
class ReplayTarget {
 public:
  virtual ~ReplayTarget() = default;

  /// Installs a base checkpoint payload (monitor LoadState). Return
  /// FailedPrecondition only when the payload is well-formed but was
  /// written under another registration (tables, schemas, constraints, or
  /// a sharded payload's shard count or key columns): Open() then fails
  /// with it and leaves every file in place. Any other error marks the
  /// file damaged, and Open() evicts it and falls back to an older chain.
  virtual Status RestoreCheckpoint(const std::string& payload) = 0;

  /// Applies a delta checkpoint payload on top of the state installed by
  /// RestoreCheckpoint and any earlier deltas of the same chain (monitor
  /// LoadStateDelta). Targets that never write delta checkpoints can keep
  /// the default.
  virtual Status RestoreCheckpointDelta(const std::string& payload) {
    (void)payload;
    return Status::Unimplemented(
        "this ReplayTarget does not support delta checkpoints");
  }

  /// Re-applies one logged batch (monitor ApplyUpdate, checks included).
  virtual Status Replay(const UpdateBatch& batch) = 0;

  /// Serializes the current state (monitor SaveState) and makes it the
  /// baseline of the next CaptureCheckpointDelta(). Open() uses it to
  /// re-anchor the log after a damaged tail was truncated.
  virtual Result<std::string> CaptureCheckpoint() = 0;

  /// Serializes what changed since the last capture or restore (monitor
  /// SaveStateDelta) and makes the current state the new baseline. Targets
  /// that never write delta checkpoints can keep the default.
  virtual Result<std::string> CaptureCheckpointDelta() {
    return Status::Unimplemented(
        "this ReplayTarget does not support delta checkpoints");
  }
};

class RecoveryManager {
 public:
  /// Runs recovery against `target` and returns a manager ready to append.
  /// Corrupt checkpoints and torn/corrupt WAL tails are repaired (removed or
  /// truncated, with a warning log), not errors; a sequence gap between the
  /// checkpoint and the first surviving WAL record is FailedPrecondition,
  /// and so is a base checkpoint the target refuses as written under
  /// another registration (nothing is removed then).
  static Result<std::unique_ptr<RecoveryManager>> Open(
      const WalOptions& options, ReplayTarget* target);

  /// Flushes any buffered tail records (best-effort) so a clean shutdown
  /// loses nothing even under SyncPolicy::kNone. On a dead (faulted) file
  /// system the flush fails and buffered bytes are dropped, like a crash.
  ~RecoveryManager();

  /// Appends one batch to the log, durable per the sync policy. On failure
  /// the batch must be treated as not applied (the caller never acked it).
  ///
  /// Thread safety: AppendBatch may be called concurrently with itself.
  /// Appends are serialized, so the log is one contiguous sequence, and
  /// each is durable per the sync policy before it returns (under kAlways,
  /// one fsync per batch). A DurableLog appends from one thread only,
  /// since monitors are not reentrant. Everything else on this class
  /// — Open, WriteCheckpoint, ShouldCheckpoint, destruction — must be
  /// externally quiesced against in-flight appends.
  Status AppendBatch(const UpdateBatch& batch);

  /// True when checkpoint_interval accepted batches have accumulated since
  /// the last checkpoint.
  bool ShouldCheckpoint() const;

  /// What the next checkpoint should be: a full base snapshot, or a delta
  /// chaining to `parent_seq` (the current checkpoint). Deltas are planned
  /// while a base exists and the chain is shorter than delta_chain_limit.
  struct CheckpointPlan {
    bool delta = false;
    std::uint64_t parent_seq = 0;  // meaningful iff delta
  };
  CheckpointPlan PlanCheckpoint() const;

  /// Durably installs `payload` as a base checkpoint covering every record
  /// appended so far, then garbage-collects covered segments and
  /// checkpoint files no longer part of the live chain.
  Status WriteCheckpoint(const std::string& payload);

  /// Durably installs `payload` as a delta checkpoint chaining to
  /// `parent_seq`, which must equal checkpoint_seq() (enforced so a stale
  /// caller cannot fork the chain). Covered segments older than the base
  /// are garbage-collected; the base and intermediate deltas stay.
  Status WriteCheckpointDelta(const std::string& payload,
                              std::uint64_t parent_seq);

  const RecoveryStats& stats() const { return stats_; }
  std::uint64_t last_seq() const { return last_seq_; }
  std::uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  std::uint64_t base_seq() const { return base_seq_; }
  std::size_t chain_length() const { return chain_length_; }

 private:
  RecoveryManager(Fs* fs, WalOptions options)
      : fs_(fs), options_(std::move(options)) {}

  /// Restores the newest checkpoint chain (base + deltas) whose files all
  /// validate into `target`; removes files that fail validation or whose
  /// parent link is broken, falling back to older chains. A base the
  /// target refuses with FailedPrecondition fails the restore instead.
  Status RestoreLatestCheckpoint(ReplayTarget* target);

  /// Logs `reason`, unlinks checkpoint file `name`, counts the removal.
  Status RemoveCheckpointFile(const std::string& name,
                              const std::string& reason);

  /// Writes `payload` as checkpoint file `name` for sequence `seq`:
  /// temp file + fsync + rename + directory fsync.
  Status WriteCheckpointFile(const std::string& name, std::uint64_t seq,
                             const std::string& payload);

  /// Replays the WAL tail through `target`, truncating damage.
  Status ReplayTail(ReplayTarget* target);

  /// Removes the damaged suffix starting at `segment`/`offset` and every
  /// later segment file.
  Status TruncateDamage(const std::string& segment, std::uint64_t offset,
                        const std::string& reason);

  /// Deletes segment files fully covered by the base checkpoint and
  /// checkpoint files no longer part of the live chain. Segments covering
  /// records in (base_seq_, checkpoint_seq_] are retained so that a chain
  /// member lost later degrades to base + full tail replay, never data
  /// loss. When a replication ship watermark exists (see
  /// wal::kShipWatermarkFileName), segments holding records the standby
  /// has not acknowledged are retained too, even across a primary restart.
  /// Ends with a directory fsync when anything was unlinked.
  Status CollectGarbage();

  /// The ship-watermark retention floor: the highest seq GC may consider
  /// covered. Max when no watermark file exists, 0 (retain everything)
  /// when the file is unreadable.
  Result<std::uint64_t> ShipRetentionFloor();

  Fs* fs_;
  WalOptions options_;
  std::unique_ptr<WalWriter> writer_;
  std::mutex append_mu_;  // serializes AppendBatch: the writer and its
                          // bookkeeping
  std::uint64_t checkpoint_seq_ = 0;
  std::uint64_t base_seq_ = 0;     // base snapshot anchoring the live chain
  std::size_t chain_length_ = 0;   // deltas stacked on that base
  std::uint64_t last_seq_ = 0;
  std::size_t batches_since_checkpoint_ = 0;
  RecoveryStats stats_;
};

}  // namespace wal
}  // namespace rtic

#endif  // RTIC_WAL_RECOVERY_H_
