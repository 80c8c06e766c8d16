// WalWriter: appends framed records to segment files, rotating at a size
// threshold. Payload-agnostic — the RecoveryManager feeds it encoded
// UpdateBatches and checkpoint blobs go through their own path.

#ifndef RTIC_WAL_WAL_WRITER_H_
#define RTIC_WAL_WAL_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "wal/file.h"

namespace rtic {
namespace wal {

/// When an appended record becomes durable.
enum class SyncPolicy {
  kNone,    // buffered in-process; flushed to the OS only at rotation/close
  kBatch,   // pushed to the OS per record; fsync at rotation and checkpoints
  kAlways,  // fsync per record
};

/// Stable policy name ("none", "batch", "always").
const char* SyncPolicyToString(SyncPolicy policy);

class WalWriter {
 public:
  struct Options {
    SyncPolicy sync_policy = SyncPolicy::kBatch;
    std::size_t segment_bytes = 4u << 20;  // rotate past this size
  };

  /// Creates a writer whose next record is `next_seq` (>= 1). Segment files
  /// are created lazily at the first append, named by the first sequence
  /// number they will contain; a leftover file with that name (possible
  /// only after a crash that wrote no durable record into it) is clobbered.
  static Result<std::unique_ptr<WalWriter>> Open(Fs* fs, std::string dir,
                                                 Options options,
                                                 std::uint64_t next_seq);

  /// Appends one record. `seq` must equal next_seq() — the log never skips
  /// or repeats a sequence number.
  ///
  /// A failed append (or its flush or sync, or rotation) POISONS the
  /// writer: the open segment may end in a torn record, and appending past
  /// it would put durable records beyond the damage, where recovery's
  /// torn-tail truncation would silently discard them. Every later
  /// Append/Rotate fails with FailedPrecondition; the open file is
  /// abandoned unflushed (crash semantics). Sequence-order violations are
  /// rejected without poisoning — nothing touched the file.
  Status Append(std::uint64_t seq, std::string_view payload);

  /// Closes the open segment; the next Append starts a fresh one. Called at
  /// checkpoints so a checkpoint covers whole segments, making garbage
  /// collection a plain file deletion. A failure poisons the writer.
  Status Rotate();

  /// Non-OK once the writer is poisoned (the first error it surfaced).
  const Status& broken() const { return broken_; }

  std::uint64_t next_seq() const { return next_seq_; }

  /// Name of the open segment file; empty when none is open.
  const std::string& current_segment() const { return current_name_; }

 private:
  WalWriter(Fs* fs, std::string dir, Options options, std::uint64_t next_seq)
      : fs_(fs),
        dir_(std::move(dir)),
        options_(options),
        next_seq_(next_seq) {}

  /// Records `error`, abandons the open file without flushing, and returns
  /// `error` (the triggering caller sees the original failure).
  Status Poison(Status error);

  Fs* fs_;
  std::string dir_;
  Options options_;
  std::uint64_t next_seq_;
  std::unique_ptr<WritableFile> current_;
  std::string current_name_;
  std::size_t current_bytes_ = 0;
  Status broken_;  // non-OK once poisoned
};

}  // namespace wal
}  // namespace rtic

#endif  // RTIC_WAL_WAL_WRITER_H_
