#include "wal/recovery.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/codec.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"

namespace rtic {
namespace wal {
namespace {

bool HasTempSuffix(std::string_view name) {
  constexpr std::string_view kSuffix = kTempSuffix;
  return name.size() > kSuffix.size() &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

/// One checkpoint file found on disk: a base (`ckpt-<seq>`) or a delta
/// (`ckpt-<seq>.d<parent>`) chaining to the checkpoint at `parent`.
struct CkptEntry {
  std::uint64_t seq = 0;
  std::uint64_t parent = 0;  // meaningful iff is_delta
  bool is_delta = false;
  std::string name;
};

}  // namespace

Result<std::unique_ptr<RecoveryManager>> RecoveryManager::Open(
    const WalOptions& options, ReplayTarget* target) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WalOptions::dir must be set");
  }
  if (target == nullptr) {
    return Status::InvalidArgument("RecoveryManager needs a ReplayTarget");
  }
  Fs* fs = options.fs != nullptr ? options.fs : DefaultFs();
  RTIC_RETURN_IF_ERROR(fs->CreateDir(options.dir));
  std::unique_ptr<RecoveryManager> mgr(new RecoveryManager(fs, options));

  RTIC_RETURN_IF_ERROR(mgr->RestoreLatestCheckpoint(target));

  // Interrupted checkpoint writes never got renamed into place; drop them
  // (after the restore, so a refused checkpoint leaves them in place too).
  RTIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        fs->ListDir(options.dir));
  for (const std::string& name : names) {
    if (HasTempSuffix(name)) {
      RTIC_RETURN_IF_ERROR(fs->Remove(options.dir + "/" + name));
      ++mgr->stats_.removed_files;
    }
  }

  RTIC_RETURN_IF_ERROR(mgr->ReplayTail(target));

  WalWriter::Options writer_options;
  writer_options.sync_policy = options.sync_policy;
  writer_options.segment_bytes = options.segment_bytes;
  RTIC_ASSIGN_OR_RETURN(mgr->writer_,
                        WalWriter::Open(fs, options.dir, writer_options,
                                        mgr->last_seq_ + 1));

  // A truncated tail leaves records beyond the checkpoint whose original
  // suffix is gone. Re-anchor the log with a fresh checkpoint at last_seq
  // so the contiguous-chain invariant holds for the next recovery.
  if (mgr->stats_.tail_damaged && mgr->last_seq_ > mgr->checkpoint_seq_) {
    RTIC_ASSIGN_OR_RETURN(std::string payload, target->CaptureCheckpoint());
    RTIC_RETURN_IF_ERROR(mgr->WriteCheckpoint(payload));
  }
  mgr->stats_.checkpoint_seq = mgr->checkpoint_seq_;
  mgr->stats_.last_seq = mgr->last_seq_;
  return mgr;
}

RecoveryManager::~RecoveryManager() {
  // Clean shutdown: push any buffered tail records out of the process so
  // they survive the exit (kNone buffers whole records, kBatch may hold an
  // unsynced segment). Best-effort — on a crashed (dead) file system the
  // close fails and the buffered bytes die with the process, as they should.
  if (writer_ != nullptr) {
    Status s = writer_->Rotate();
    if (!s.ok()) {
      RTIC_LOG(Warning) << "wal: close without flush: " << s.ToString();
    }
  }
}

Status RecoveryManager::RemoveCheckpointFile(const std::string& name,
                                             const std::string& reason) {
  RTIC_LOG(Warning) << "wal: removing invalid checkpoint " << name << " ("
                    << reason << ")";
  RTIC_RETURN_IF_ERROR(fs_->Remove(options_.dir + "/" + name));
  ++stats_.removed_files;
  return Status::OK();
}

Status RecoveryManager::RestoreLatestCheckpoint(ReplayTarget* target) {
  RTIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        fs_->ListDir(options_.dir));
  std::vector<CkptEntry> entries;
  for (const std::string& name : names) {
    CkptEntry e;
    e.name = name;
    if (ParseCheckpointFileName(name, &e.seq)) {
      entries.push_back(std::move(e));
    } else if (ParseDeltaCheckpointFileName(name, &e.seq, &e.parent)) {
      e.is_delta = true;
      entries.push_back(std::move(e));
    }
  }
  // Newest first; a base sorts ahead of a delta at the same seq so the
  // self-contained snapshot wins ties.
  std::sort(entries.begin(), entries.end(),
            [](const CkptEntry& a, const CkptEntry& b) {
              if (a.seq != b.seq) return a.seq > b.seq;
              return a.is_delta < b.is_delta;
            });

  // Pick the newest entry whose parent chain resolves down to a base with
  // every member file parseable, then install base + deltas in order. Any
  // broken link evicts the offending file and restarts the selection — the
  // common fallback is the chain's own base plus a longer WAL replay, which
  // segment GC retains exactly for this reason (see CollectGarbage).
  bool installed = false;
  while (!entries.empty() && !installed) {
    // Chain membership, tip first; chain[members-1] is the base.
    std::vector<std::size_t> chain;
    std::size_t cursor = 0;  // entries[0] is the newest → the tip
    bool broken = false;
    while (true) {
      chain.push_back(cursor);
      if (!entries[cursor].is_delta) break;
      const std::uint64_t want = entries[cursor].parent;
      std::size_t next = entries.size();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        // The sort already put a base before a delta of equal seq.
        if (entries[i].seq == want) {
          next = i;
          break;
        }
      }
      if (next == entries.size()) {
        RTIC_RETURN_IF_ERROR(RemoveCheckpointFile(
            entries[cursor].name,
            "delta's parent checkpoint seq " + std::to_string(want) +
                " is missing"));
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(cursor));
        broken = true;
        break;
      }
      cursor = next;
    }
    if (broken) continue;

    // Validate every member frame before touching the target, so a corrupt
    // delta discovered mid-chain never leaves a half-installed state.
    std::vector<std::string> payloads(chain.size());
    std::size_t bad = chain.size();
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const CkptEntry& e = entries[chain[k]];
      RTIC_ASSIGN_OR_RETURN(std::string content,
                            fs_->ReadFile(options_.dir + "/" + e.name));
      ParsedRecord rec;
      std::string reason;
      ParseOutcome outcome = ParseRecord(content, 0, &rec, &reason);
      if (outcome != ParseOutcome::kRecord) {
        // reason already set by ParseRecord
      } else if (rec.seq != e.seq) {
        reason = "record seq " + std::to_string(rec.seq) +
                 " does not match file name";
      } else if (rec.end_offset != content.size()) {
        reason = "trailing bytes after the checkpoint record";
      } else {
        payloads[k] = std::move(rec.payload);
        continue;
      }
      RTIC_RETURN_IF_ERROR(RemoveCheckpointFile(e.name, reason));
      bad = chain[k];
      break;
    }
    if (bad != chain.size()) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(bad));
      continue;
    }

    // Install: base first, then deltas ascending. A target-level rejection
    // (e.g. a delta chaining to a different logical state) evicts that file
    // and restarts; the retried chain re-installs its base from scratch, so
    // partial progress here cannot leak into the next attempt. A base the
    // target refuses as another registration's is not damage: evicting it
    // would silently drop every transition it covers.
    bool rejected = false;
    for (std::size_t k = chain.size(); k-- > 0;) {
      const CkptEntry& e = entries[chain[k]];
      Status s = e.is_delta
                     ? target->RestoreCheckpointDelta(payloads[k])
                     : target->RestoreCheckpoint(payloads[k]);
      if (!e.is_delta && s.code() == StatusCode::kFailedPrecondition) {
        return Status::FailedPrecondition(
            "checkpoint " + options_.dir + "/" + e.name +
            " does not match this monitor's registration (" + s.message() +
            "); restart with the tables, constraints and shard count that "
            "wrote it");
      }
      if (!s.ok()) {
        RTIC_RETURN_IF_ERROR(RemoveCheckpointFile(e.name, s.message()));
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(chain[k]));
        rejected = true;
        break;
      }
    }
    if (rejected) continue;

    checkpoint_seq_ = entries[chain[0]].seq;
    base_seq_ = entries[chain.back()].seq;
    chain_length_ = chain.size() - 1;
    stats_.checkpoint_chain = chain.size();
    installed = true;
  }
  stats_.checkpoint_seq = checkpoint_seq_;
  last_seq_ = checkpoint_seq_;
  return Status::OK();
}

Status RecoveryManager::ReplayTail(ReplayTarget* target) {
  RTIC_ASSIGN_OR_RETURN(std::unique_ptr<WalReader> reader,
                        WalReader::Open(fs_, options_.dir));
  bool first = true;
  WalReader::Record rec;
  while (true) {
    RTIC_ASSIGN_OR_RETURN(bool has_record, reader->Next(&rec));
    if (!has_record) break;
    if (first && rec.seq > checkpoint_seq_ + 1) {
      // Records between the checkpoint and the log's start are simply
      // missing — not corruption we can truncate away. Refuse to guess.
      return Status::FailedPrecondition(
          "WAL gap: checkpoint covers up to seq " +
          std::to_string(checkpoint_seq_) + " but the log starts at seq " +
          std::to_string(rec.seq));
    }
    first = false;
    if (rec.seq <= checkpoint_seq_) continue;  // already in the checkpoint
    StateReader payload_reader(rec.payload);
    Result<UpdateBatch> batch = UpdateBatch::DecodeFrom(&payload_reader);
    std::string damage_reason;
    if (!batch.ok()) {
      damage_reason = batch.status().message();
    } else if (!payload_reader.AtEnd()) {
      damage_reason = "trailing tokens after the update batch";
    }
    if (!damage_reason.empty()) {
      // The frame checksum passed but the payload is not a batch: treat the
      // record as the first damaged byte, like a torn tail.
      return TruncateDamage(rec.segment, rec.offset, damage_reason);
    }
    RTIC_RETURN_IF_ERROR(target->Replay(*batch));
    last_seq_ = rec.seq;
    ++stats_.replayed_batches;
  }
  if (reader->damage().has_value()) {
    const WalReader::Damage& damage = *reader->damage();
    return TruncateDamage(damage.segment, damage.offset, damage.reason);
  }
  batches_since_checkpoint_ = stats_.replayed_batches;
  return Status::OK();
}

Status RecoveryManager::TruncateDamage(const std::string& segment,
                                       std::uint64_t offset,
                                       const std::string& reason) {
  stats_.tail_damaged = true;
  std::uint64_t damaged_first_seq = 0;
  ParseSegmentFileName(segment, &damaged_first_seq);
  RTIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        fs_->ListDir(options_.dir));
  for (const std::string& name : names) {
    std::uint64_t first_seq = 0;
    if (!ParseSegmentFileName(name, &first_seq)) continue;
    if (first_seq <= damaged_first_seq) continue;
    RTIC_RETURN_IF_ERROR(fs_->Remove(options_.dir + "/" + name));
    ++stats_.removed_files;
  }
  const std::string path = options_.dir + "/" + segment;
  RTIC_ASSIGN_OR_RETURN(std::string content, fs_->ReadFile(path));
  if (content.size() > offset) {
    stats_.truncated_bytes += content.size() - offset;
  }
  if (offset == 0) {
    RTIC_RETURN_IF_ERROR(fs_->Remove(path));
    ++stats_.removed_files;
  } else {
    RTIC_RETURN_IF_ERROR(fs_->Truncate(path, offset));
  }
  RTIC_LOG(Warning) << "wal: damaged tail in " << segment << " at offset "
                    << offset << " (" << reason << "); truncated "
                    << stats_.truncated_bytes << " byte(s), removed "
                    << stats_.removed_files << " file(s)";
  batches_since_checkpoint_ = stats_.replayed_batches;
  return Status::OK();
}

Status RecoveryManager::AppendBatch(const UpdateBatch& batch) {
  StateWriter payload;
  batch.EncodeTo(&payload);
  std::lock_guard<std::mutex> lock(append_mu_);
  RTIC_RETURN_IF_ERROR(writer_->Append(writer_->next_seq(), payload.str()));
  last_seq_ = writer_->next_seq() - 1;
  ++batches_since_checkpoint_;
  return Status::OK();
}

bool RecoveryManager::ShouldCheckpoint() const {
  return options_.checkpoint_interval > 0 &&
         batches_since_checkpoint_ >= options_.checkpoint_interval;
}

RecoveryManager::CheckpointPlan RecoveryManager::PlanCheckpoint() const {
  CheckpointPlan plan;
  if (options_.delta_chain_limit > 0 && checkpoint_seq_ > 0 &&
      chain_length_ < options_.delta_chain_limit) {
    plan.delta = true;
    plan.parent_seq = checkpoint_seq_;
  }
  return plan;
}

Status RecoveryManager::WriteCheckpointFile(const std::string& name,
                                            std::uint64_t seq,
                                            const std::string& payload) {
  const std::string tmp_path = options_.dir + "/" + name + kTempSuffix;
  {
    RTIC_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                          fs_->NewWritableFile(tmp_path, /*truncate=*/true));
    RTIC_RETURN_IF_ERROR(file->Append(EncodeRecord(seq, payload)));
    RTIC_RETURN_IF_ERROR(file->Sync());
    RTIC_RETURN_IF_ERROR(file->Close());
  }
  RTIC_RETURN_IF_ERROR(fs_->Rename(tmp_path, options_.dir + "/" + name));
  // The rename made the data durable but not the directory entry: a crash
  // before the directory itself reaches disk can lose the new name, and
  // would be fatal once GC has unlinked the files the lost name superseded.
  return fs_->SyncDir(options_.dir);
}

Status RecoveryManager::WriteCheckpoint(const std::string& payload) {
  const std::uint64_t seq = last_seq_;
  if (seq == 0) {
    return Status::FailedPrecondition(
        "nothing to checkpoint: no record has been appended");
  }
  // Close the open segment first so every segment file holds only records
  // <= seq, making garbage collection a byte-range decision on whole files.
  RTIC_RETURN_IF_ERROR(writer_->Rotate());
  RTIC_RETURN_IF_ERROR(WriteCheckpointFile(CheckpointFileName(seq), seq,
                                           payload));
  checkpoint_seq_ = seq;
  base_seq_ = seq;
  chain_length_ = 0;
  batches_since_checkpoint_ = 0;
  return CollectGarbage();
}

Status RecoveryManager::WriteCheckpointDelta(const std::string& payload,
                                             std::uint64_t parent_seq) {
  if (parent_seq == 0 || parent_seq != checkpoint_seq_) {
    return Status::InvalidArgument(
        "delta checkpoint parent seq " + std::to_string(parent_seq) +
        " does not match the current checkpoint seq " +
        std::to_string(checkpoint_seq_));
  }
  const std::uint64_t seq = last_seq_;
  if (seq <= parent_seq) {
    return Status::FailedPrecondition(
        "nothing to checkpoint: no record appended since seq " +
        std::to_string(parent_seq));
  }
  RTIC_RETURN_IF_ERROR(writer_->Rotate());
  RTIC_RETURN_IF_ERROR(WriteCheckpointFile(
      DeltaCheckpointFileName(seq, parent_seq), seq, payload));
  checkpoint_seq_ = seq;
  ++chain_length_;
  batches_since_checkpoint_ = 0;
  return CollectGarbage();
}

Result<std::uint64_t> RecoveryManager::ShipRetentionFloor() {
  const std::string path =
      options_.dir + "/" + std::string(kShipWatermarkFileName);
  RTIC_ASSIGN_OR_RETURN(bool exists, fs_->FileExists(path));
  if (!exists) {
    // No standby has ever attached; nothing constrains GC.
    return std::numeric_limits<std::uint64_t>::max();
  }
  RTIC_ASSIGN_OR_RETURN(std::string data, fs_->ReadFile(path));
  std::uint64_t acked = 0;
  if (!ParseShipWatermark(data, &acked)) {
    // A damaged watermark could hide an arbitrarily low ack; the only safe
    // reading is "nothing acknowledged yet".
    RTIC_LOG(Warning) << "wal: corrupt ship watermark " << path
                      << "; retaining all segments";
    return std::uint64_t{0};
  }
  return acked;
}

Status RecoveryManager::CollectGarbage() {
  RTIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        fs_->ListDir(options_.dir));
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::vector<std::string> stale;
  for (const std::string& name : names) {
    std::uint64_t seq = 0;
    std::uint64_t parent = 0;
    if (ParseSegmentFileName(name, &seq)) {
      segments.emplace_back(seq, name);
    } else if (ParseCheckpointFileName(name, &seq) && seq < base_seq_) {
      stale.push_back(name);
    } else if (ParseDeltaCheckpointFileName(name, &seq, &parent) &&
               seq <= base_seq_) {
      // A delta at the base's own seq is superseded by the self-contained
      // snapshot; older deltas belong to a dead chain.
      stale.push_back(name);
    }
  }
  // A segment is garbage only when every record it can hold is covered by
  // the BASE snapshot, not merely the chain tip: if a delta file is later
  // lost or corrupted, recovery falls back to the base and replays these
  // very segments. Records in segment i extend to just before the next
  // segment's first seq (the current checkpoint seq for the newest one,
  // thanks to the pre-checkpoint Rotate).
  //
  // A standby adds a second floor: once a ship watermark exists, a segment
  // holding any record the standby has not acknowledged must survive, even
  // across a primary restart — the file is re-read on every pass rather
  // than cached so a restarted primary honors the watermark its previous
  // incarnation persisted.
  RTIC_ASSIGN_OR_RETURN(std::uint64_t ship_floor, ShipRetentionFloor());
  std::sort(segments.begin(), segments.end());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::uint64_t covered_end = i + 1 < segments.size()
                                          ? segments[i + 1].first - 1
                                          : checkpoint_seq_;
    if (covered_end <= base_seq_ && covered_end <= ship_floor) {
      stale.push_back(segments[i].second);
    }
  }
  for (const std::string& name : stale) {
    RTIC_RETURN_IF_ERROR(fs_->Remove(options_.dir + "/" + name));
  }
  // Unlinks are directory mutations too: make the reclaimed space and the
  // absence of dead chain members durable before acking the checkpoint.
  if (!stale.empty()) RTIC_RETURN_IF_ERROR(fs_->SyncDir(options_.dir));
  return Status::OK();
}

}  // namespace wal
}  // namespace rtic
