// StandbyMonitor: the warm-standby side of log-shipping replication.
//
// The standby mirrors the primary's WAL directory file-for-file into its
// own directory, verifying the record framing's CRCs as bytes arrive, and
// continuously replays every complete shipped batch through an in-memory
// replica ConstraintMonitor — the same ApplyUpdate path recovery uses, so
// the replica's verdict stream is the primary's. Shipped checkpoint files
// (base + delta chains) bootstrap a late-attaching replica past records
// the primary has already garbage-collected. The standby acknowledges the
// highest sequence number that is both durably mirrored and replayed;
// the primary's GC retains everything newer (see shipper.h).
//
// Chunk handling is idempotent, which is what makes the transport's
// at-most-once-per-connection guarantee enough: a duplicated chunk is
// skipped (its bytes are already durable), a re-shipped file after a
// reconnect is skipped the same way, an out-of-order chunk is stashed
// until the mirror reaches its offset, and a torn frame fails the session
// before any byte reaches the mirror. Attach() repairs standby-side crash
// damage (torn or corrupt mirror tails are truncated, invalid mirrored
// checkpoint files removed) before replaying, so re-attaching after a
// standby crash converges back to the primary's stream.
//
// Promote() is genuinely Recover()-equivalent: it builds a fresh durable
// ConstraintMonitor over the mirror directory and runs Recover(), so a
// promoted standby takes over at the primary's last durable batch that
// reached the mirror — with the same checkpoint chain, the same truncation
// rules, and the same verdicts as a primary restart.

#ifndef RTIC_REPLICATION_STANDBY_H_
#define RTIC_REPLICATION_STANDBY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "monitor/monitor.h"
#include "replication/transport.h"
#include "wal/file.h"

namespace rtic {
namespace replication {

struct StandbyOptions {
  /// The standby's mirror directory; created if absent.
  std::string dir;
  /// File system; nullptr means wal::DefaultFs(). Tests substitute a
  /// FaultInjectingFs to crash the standby at any mirror write.
  wal::Fs* fs = nullptr;
  /// Configuration for the replica and the promoted monitor. wal_dir,
  /// wal_fs, and replication fields are overridden internally.
  MonitorOptions monitor_options;
  /// Registers the tables and constraints (the schema is not shipped; a
  /// standby is configured like its primary). Called on the replica at
  /// Attach() and on the promoted monitor in Promote().
  std::function<Status(ConstraintMonitor*)> configure;
  /// Optional: observes every replayed batch and its violations, in
  /// sequence order — the standby's live verdict stream.
  std::function<void(std::uint64_t seq, const UpdateBatch& batch,
                     const std::vector<Violation>& violations)>
      on_replay;
};

struct StandbyStats {
  std::uint64_t frames_received = 0;
  std::uint64_t chunks_applied = 0;    // chunks that added mirror bytes
  std::uint64_t chunks_skipped = 0;    // duplicates / already-mirrored
  std::uint64_t chunks_stashed = 0;    // out-of-order, held for later
  std::uint64_t records_replayed = 0;  // batches applied to the replica
  std::uint64_t checkpoints_installed = 0;
  std::uint64_t acks_sent = 0;
};

class StandbyMonitor {
 public:
  /// Builds the replica (monitor_options + configure), repairs and replays
  /// whatever an earlier session left in the mirror directory, and binds
  /// the transport. The endpoint must outlive the standby.
  static Result<std::unique_ptr<StandbyMonitor>> Attach(
      StandbyOptions options, Transport* transport);

  /// Blocks for one frame and handles it. Returns false when the session
  /// is over — the primary closed cleanly, or it vanished mid-session (an
  /// outbound reply could not be delivered); a protocol violation,
  /// unparseable frame, or mirror write failure is an error (the session
  /// is dead; the mirror stays valid and a new Attach() over the same
  /// directory resumes).
  Result<bool> ProcessOne();

  /// Handles every frame already queued without blocking; returns the
  /// number handled.
  Result<std::size_t> ProcessPending();

  /// Serves until the primary closes the connection.
  Status Run();

  /// Takes over: closes the transport and recovers a fresh durable
  /// ConstraintMonitor from the mirror directory (see file comment).
  Result<std::unique_ptr<ConstraintMonitor>> Promote();

  /// Highest sequence number durably mirrored and replayed so far.
  std::uint64_t replayed_seq() const { return replica_->transition_count(); }

  /// The live replica (read-only; owned by the standby until Promote).
  const ConstraintMonitor& replica() const { return *replica_; }

  const StandbyStats& stats() const { return stats_; }

 private:
  /// Bookkeeping for one mirrored segment file.
  struct SegmentState {
    std::uint64_t durable = 0;  // bytes in the mirror file
    std::string tail;           // durable bytes not yet consumed as records
  };

  /// One validated checkpoint file durably present in the mirror.
  struct CkptInfo {
    std::uint64_t seq = 0;
    std::uint64_t parent = 0;  // meaningful iff is_delta
    bool is_delta = false;
    std::string payload;  // the unframed checkpoint payload
  };

  StandbyMonitor(StandbyOptions options, Transport* transport);

  static bool ParseCkptName(const std::string& name, CkptInfo* info);

  /// Unframes a mirrored checkpoint file: exactly one record whose
  /// sequence number matches the file name.
  static bool UnframeCkpt(const std::string& name, const std::string& bytes,
                          CkptInfo* info);

  Status BuildReplica();

  /// Repairs the mirror directory (truncate torn/corrupt segment tails,
  /// remove invalid checkpoint files) and replays its contents into the
  /// replica: newest valid checkpoint chain first, then every applicable
  /// record.
  Status CatchUpFromMirror();

  Status HandleFrame(const std::string& raw);
  Status HandleChunk(const std::string& name, std::uint64_t offset,
                     const std::string& bytes);
  Status HandleCheckpointChunk(const std::string& name,
                               const std::string& bytes);
  Status AppendSegmentBytes(const std::string& name,
                            const std::string& bytes);

  /// Replays every complete, in-sequence record buffered in the segment
  /// tails; stops at a gap (waiting for a stashed or future chunk).
  Status ApplyBufferedRecords();

  /// Advances the replica over the newest mirrored checkpoint chain: the
  /// greatest base ahead of the replica, then every delta whose parent
  /// link matches exactly. Used at Attach() and when a late-attach gap
  /// proves the records below the chain no longer exist on the primary.
  Status InstallBestChain();

  Status ApplyRecordPayload(std::uint64_t seq, const std::string& payload);

  /// What to acknowledge: max(replayed records, durably mirrored chain
  /// tip) — either suffices for Promote() to restore that far.
  std::uint64_t AckValue() const;

  Status SendAckIfAdvanced();

  /// Sends `frame`, converting a send failure into "the peer is gone"
  /// (`peer_gone_`): the session then ends as if the primary had closed,
  /// since everything the frame would have told it is already durable in
  /// the mirror.
  void SendToPeer(const std::string& frame);

  StandbyOptions options_;
  wal::Fs* fs_;
  Transport* transport_;
  std::unique_ptr<ConstraintMonitor> replica_;
  std::map<std::string, SegmentState> segments_;  // sorted = sequence order
  std::map<std::string, std::uint64_t> ckpt_sizes_;  // mirrored ckpt files
  std::map<std::string, CkptInfo> mirrored_ckpts_;   // validated, durable
  // Out-of-order chunks keyed by (file, required mirror size).
  std::map<std::pair<std::string, std::uint64_t>, std::string> stashed_;
  std::uint64_t last_acked_ = 0;
  bool sent_first_ack_ = false;
  bool peer_gone_ = false;  // an outbound send failed; session is over
  StandbyStats stats_;
};

}  // namespace replication
}  // namespace rtic

#endif  // RTIC_REPLICATION_STANDBY_H_
