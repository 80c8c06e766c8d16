#include "wal/wal_writer.h"

#include "wal/wal_format.h"

namespace rtic {
namespace wal {

const char* SyncPolicyToString(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kBatch:
      return "batch";
    case SyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Fs* fs, std::string dir,
                                                   Options options,
                                                   std::uint64_t next_seq) {
  if (next_seq == 0) {
    return Status::InvalidArgument("WAL sequence numbers start at 1");
  }
  if (options.segment_bytes == 0) {
    return Status::InvalidArgument("segment_bytes must be positive");
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fs, std::move(dir), options, next_seq));
}

Status WalWriter::Append(std::uint64_t seq, std::string_view payload) {
  RTIC_RETURN_IF_ERROR(broken_);
  if (seq != next_seq_) {
    // Caller bug caught before the file is touched; no poisoning needed.
    return Status::InvalidArgument(
        "WAL append out of order: got seq " + std::to_string(seq) +
        ", expected " + std::to_string(next_seq_));
  }
  if (!current_) {
    const std::string name = SegmentFileName(seq);
    Result<std::unique_ptr<WritableFile>> file =
        fs_->NewWritableFile(dir_ + "/" + name, /*truncate=*/true);
    if (!file.ok()) return Poison(file.status());
    current_ = std::move(file).value();
    current_name_ = name;
    current_bytes_ = 0;
  }
  std::string record = EncodeRecord(seq, payload);
  Status write = current_->Append(record);
  if (write.ok()) {
    switch (options_.sync_policy) {
      case SyncPolicy::kNone:
        break;
      case SyncPolicy::kBatch:
        write = current_->Flush();
        break;
      case SyncPolicy::kAlways:
        write = current_->Sync();
        break;
    }
  }
  if (!write.ok()) return Poison(std::move(write));
  current_bytes_ += record.size();
  ++next_seq_;
  if (current_bytes_ >= options_.segment_bytes) {
    RTIC_RETURN_IF_ERROR(Rotate());
  }
  return Status::OK();
}

Status WalWriter::Rotate() {
  RTIC_RETURN_IF_ERROR(broken_);
  if (!current_) return Status::OK();
  if (options_.sync_policy != SyncPolicy::kNone) {
    Status sync = current_->Sync();
    if (!sync.ok()) return Poison(std::move(sync));
  }
  Status close = current_->Close();
  current_.reset();
  current_name_.clear();
  current_bytes_ = 0;
  if (!close.ok()) {
    broken_ = Status::FailedPrecondition("WAL writer poisoned by: " +
                                         close.ToString());
    return close;
  }
  return Status::OK();
}

Status WalWriter::Poison(Status error) {
  broken_ = Status::FailedPrecondition("WAL writer poisoned by: " +
                                       error.ToString());
  // Abandon the open file unflushed: whatever the failed operation left
  // behind (possibly a torn record) must stay the end of this segment.
  current_.reset();
  current_name_.clear();
  current_bytes_ = 0;
  return error;
}

}  // namespace wal
}  // namespace rtic
