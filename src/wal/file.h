// File-system abstraction for the durability subsystem.
//
// The WAL writer, reader, and recovery manager never touch POSIX directly;
// they go through `Fs`, so tests can substitute `FaultInjectingFs` and kill
// the "process" at any chosen write operation — the basis of the
// deterministic crash matrix in tests/crash_matrix_test.cc.
//
// Durability contract of `WritableFile`:
//   Append  — buffers bytes in the file object (nothing reaches the OS yet),
//   Flush   — pushes the buffer to the OS (survives process death),
//   Sync    — Flush + fsync (survives OS/power death),
//   Close   — Flush + close.
// The destructor deliberately does NOT flush: an abandoned file behaves like
// one owned by a crashed process, which is exactly what crash tests need.

#ifndef RTIC_WAL_FILE_H_
#define RTIC_WAL_FILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rtic {
namespace wal {

/// An append-only file handle (see the durability contract above).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(std::string_view data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Minimal file-system surface used by the WAL.
class Fs {
 public:
  virtual ~Fs() = default;

  /// Opens `path` for appending; `truncate` discards existing content.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  /// Reads the whole file into a string.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Entry names (not paths) in `dir`, sorted; "." and ".." excluded.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;

  /// Creates `dir` (one level); succeeds if it already exists.
  virtual Status CreateDir(const std::string& dir) = 0;

  /// Atomically replaces `to` with `from`.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status Remove(const std::string& path) = 0;

  /// Fsyncs the directory itself so renames and unlinks inside it survive
  /// power loss (rename-into-place is atomic, but the new directory entry
  /// lives in the directory's own blocks). The default is a no-op so thin
  /// test wrappers keep working; file systems with real durability override
  /// it.
  virtual Status SyncDir(const std::string& dir) {
    (void)dir;
    return Status::OK();
  }

  /// Truncates `path` to `size` bytes.
  virtual Status Truncate(const std::string& path, std::uint64_t size) = 0;

  virtual Result<bool> FileExists(const std::string& path) = 0;
};

/// The process-wide POSIX implementation.
Fs* DefaultFs();

/// What a fault injection does to the triggering write operation.
enum class FaultKind {
  kFailWrite,   // the operation has no effect
  kShortWrite,  // an Append lands only a prefix of its bytes (torn record)
  kBitFlip,     // an Append lands fully but with one byte corrupted
};

/// Wraps another Fs and kills it at a chosen mutating operation: operation
/// number `trigger_op` (1-based; 0 disables injection and only counts)
/// applies `kind`'s partial effect and fails, and every operation after it
/// fails outright — the file system behaves as if the process died mid-call.
/// Mutating operations are counted; reads and CreateDir are passed through
/// (but also fail once dead). The fault accounting is thread-safe because
/// a durable monitor's shipper thread shares the fs with the commit path;
/// the files handed out inherit the base Fs's (lack of) internal
/// synchronization.
class FaultInjectingFs final : public Fs {
 public:
  FaultInjectingFs(Fs* base, std::uint64_t trigger_op, FaultKind kind);

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status CreateDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Result<bool> FileExists(const std::string& path) override;

  /// Mutating operations seen so far (use a disabled run to size a matrix).
  std::uint64_t ops() const;

  /// True once the fault has fired (every later operation fails).
  bool dead() const;

 private:
  friend class FaultInjectingFile;

  /// Accounts one mutating operation. Returns true when this operation is
  /// the trigger (the caller applies the fault's partial effect and fails);
  /// returns a non-OK status when the fs is already dead.
  Result<bool> BeginOp();

  Fs* base_;
  const std::uint64_t trigger_op_;
  const FaultKind kind_;
  mutable std::mutex mu_;
  std::uint64_t ops_ = 0;   // guarded by mu_
  bool dead_ = false;       // guarded by mu_
};

}  // namespace wal
}  // namespace rtic

#endif  // RTIC_WAL_FILE_H_
