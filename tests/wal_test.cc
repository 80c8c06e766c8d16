// Unit tests for the WAL building blocks: record framing, file naming, the
// POSIX file layer, segment writer/reader, and the fault-injecting Fs that
// the crash matrix is built on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "wal/file.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"
#include "wal/wal_writer.h"

namespace rtic {
namespace wal {
namespace {

using ::rtic::testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_wal_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void WriteWholeFile(Fs* fs, const std::string& path, std::string_view data) {
  std::unique_ptr<WritableFile> f =
      Unwrap(fs->NewWritableFile(path, /*truncate=*/true));
  RTIC_ASSERT_OK(f->Append(data));
  RTIC_ASSERT_OK(f->Close());
}

// ---- record framing ----------------------------------------------------------

TEST(WalFormatTest, RecordRoundTrip) {
  for (const std::string& payload :
       {std::string(), std::string("hello"), std::string(1000, 'x'),
        std::string("\0\xff\n with bytes", 14)}) {
    std::string rec = EncodeRecord(42, payload);
    EXPECT_EQ(rec.size(), kRecordHeaderBytes + payload.size());
    ParsedRecord parsed;
    std::string reason;
    ASSERT_EQ(ParseRecord(rec, 0, &parsed, &reason), ParseOutcome::kRecord)
        << reason;
    EXPECT_EQ(parsed.seq, 42u);
    EXPECT_EQ(parsed.payload, payload);
    EXPECT_EQ(parsed.end_offset, rec.size());
  }
}

TEST(WalFormatTest, BackToBackRecordsParseInSequence) {
  std::string data = EncodeRecord(1, "a") + EncodeRecord(2, "bb");
  ParsedRecord rec;
  ASSERT_EQ(ParseRecord(data, 0, &rec, nullptr), ParseOutcome::kRecord);
  EXPECT_EQ(rec.seq, 1u);
  ASSERT_EQ(ParseRecord(data, rec.end_offset, &rec, nullptr),
            ParseOutcome::kRecord);
  EXPECT_EQ(rec.seq, 2u);
  EXPECT_EQ(ParseRecord(data, rec.end_offset, &rec, nullptr),
            ParseOutcome::kEnd);
}

TEST(WalFormatTest, EveryTornPrefixIsDetected) {
  const std::string rec = EncodeRecord(7, "payload");
  for (std::size_t cut = 1; cut < rec.size(); ++cut) {
    ParsedRecord parsed;
    std::string reason;
    ParseOutcome outcome = ParseRecord(rec.substr(0, cut), 0, &parsed, &reason);
    EXPECT_EQ(outcome, ParseOutcome::kTorn) << "cut at " << cut;
    EXPECT_FALSE(reason.empty());
  }
}

TEST(WalFormatTest, EverySingleByteFlipIsDetected) {
  const std::string rec = EncodeRecord(7, "payload");
  for (std::size_t i = 0; i < rec.size(); ++i) {
    std::string corrupted = rec;
    corrupted[i] ^= 0x01;
    ParsedRecord parsed;
    ParseOutcome outcome = ParseRecord(corrupted, 0, &parsed, nullptr);
    EXPECT_NE(outcome, ParseOutcome::kRecord) << "flip at byte " << i;
  }
}

TEST(WalFormatTest, ImplausibleLengthIsCorruptNotAllocated) {
  // Header declaring a ~4 GiB payload on a tiny file.
  std::string data(kRecordHeaderBytes, '\xff');
  ParsedRecord parsed;
  std::string reason;
  EXPECT_EQ(ParseRecord(data, 0, &parsed, &reason), ParseOutcome::kCorrupt);
}

TEST(WalFormatTest, FileNamesRoundTrip) {
  std::uint64_t seq = 0;
  EXPECT_TRUE(ParseSegmentFileName(SegmentFileName(123), &seq));
  EXPECT_EQ(seq, 123u);
  EXPECT_TRUE(ParseCheckpointFileName(CheckpointFileName(456), &seq));
  EXPECT_EQ(seq, 456u);
  for (const char* bad : {"wal-123.log", "wal-.log", "ckpt-12", "x", "",
                          "wal-00000000000000000123.logx",
                          "ckpt-00000000000000000456.tmp"}) {
    EXPECT_FALSE(ParseSegmentFileName(bad, &seq)) << bad;
    EXPECT_FALSE(ParseCheckpointFileName(bad, &seq)) << bad;
  }
}

// ---- POSIX file layer --------------------------------------------------------

TEST(PosixFsTest, WriteReadListRenameRemove) {
  const std::string dir = MakeTempDir();
  Fs* fs = DefaultFs();
  RTIC_ASSERT_OK(fs->CreateDir(dir));  // already exists: OK
  RTIC_ASSERT_OK(fs->CreateDir(dir + "/sub"));

  WriteWholeFile(fs, dir + "/b.txt", "hello");
  WriteWholeFile(fs, dir + "/a.txt", "world");
  EXPECT_EQ(Unwrap(fs->ReadFile(dir + "/b.txt")), "hello");

  std::vector<std::string> names = Unwrap(fs->ListDir(dir));
  EXPECT_EQ(names, (std::vector<std::string>{"a.txt", "b.txt", "sub"}));

  RTIC_ASSERT_OK(fs->Rename(dir + "/b.txt", dir + "/c.txt"));
  EXPECT_FALSE(Unwrap(fs->FileExists(dir + "/b.txt")));
  EXPECT_TRUE(Unwrap(fs->FileExists(dir + "/c.txt")));

  RTIC_ASSERT_OK(fs->Truncate(dir + "/c.txt", 2));
  EXPECT_EQ(Unwrap(fs->ReadFile(dir + "/c.txt")), "he");

  RTIC_ASSERT_OK(fs->Remove(dir + "/c.txt"));
  EXPECT_FALSE(Unwrap(fs->FileExists(dir + "/c.txt")));
  EXPECT_FALSE(fs->ReadFile(dir + "/missing").ok());
}

TEST(PosixFsTest, AbandonedFileDoesNotFlushItsBuffer) {
  const std::string dir = MakeTempDir();
  Fs* fs = DefaultFs();
  {
    std::unique_ptr<WritableFile> f =
        Unwrap(fs->NewWritableFile(dir + "/f", true));
    RTIC_ASSERT_OK(f->Append("durable"));
    RTIC_ASSERT_OK(f->Flush());
    RTIC_ASSERT_OK(f->Append("lost"));
    // Destroyed without Flush/Close: the second append must vanish, like a
    // crash between the two appends.
  }
  EXPECT_EQ(Unwrap(fs->ReadFile(dir + "/f")), "durable");
}

// ---- writer + reader ---------------------------------------------------------

TEST(WalWriterTest, RotatesSegmentsAndReaderSeesAllRecords) {
  const std::string dir = MakeTempDir();
  WalWriter::Options options;
  options.segment_bytes = 64;  // force frequent rotation
  std::unique_ptr<WalWriter> writer =
      Unwrap(WalWriter::Open(DefaultFs(), dir, options, 1));
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    RTIC_ASSERT_OK(writer->Append(seq, "payload-" + std::to_string(seq)));
  }
  RTIC_ASSERT_OK(writer->Rotate());

  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  EXPECT_GT(reader->segments().size(), 1u);
  WalReader::Record rec;
  std::uint64_t expected = 1;
  while (Unwrap(reader->Next(&rec))) {
    EXPECT_EQ(rec.seq, expected);
    EXPECT_EQ(rec.payload, "payload-" + std::to_string(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 21u);
  EXPECT_FALSE(reader->damage().has_value());
}

TEST(WalWriterTest, RejectsOutOfOrderAppends) {
  const std::string dir = MakeTempDir();
  std::unique_ptr<WalWriter> writer =
      Unwrap(WalWriter::Open(DefaultFs(), dir, {}, 1));
  RTIC_ASSERT_OK(writer->Append(1, "a"));
  EXPECT_FALSE(writer->Append(1, "dup").ok());
  EXPECT_FALSE(writer->Append(3, "skip").ok());
  EXPECT_EQ(writer->next_seq(), 2u);
  EXPECT_FALSE(WalWriter::Open(DefaultFs(), dir, {}, 0).ok());
}

/// Fails exactly one chosen file Append with a torn half-write, then keeps
/// working — unlike FaultInjectingFs, whose trigger kills the whole file
/// system. This models a transient I/O error: the dangerous case for a
/// writer, because later appends would SUCCEED and land durable records
/// beyond the torn bytes, where recovery's torn-tail truncation silently
/// discards them.
class TornOnceFs final : public Fs {
 public:
  TornOnceFs(Fs* base, int fail_append)
      : base_(base), fail_append_(fail_append) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    RTIC_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                          base_->NewWritableFile(path, truncate));
    return std::unique_ptr<WritableFile>(
        std::make_unique<File>(this, std::move(base)));
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
  Status Truncate(const std::string& path, std::uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  class File final : public WritableFile {
   public:
    File(TornOnceFs* fs, std::unique_ptr<WritableFile> base)
        : fs_(fs), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      if (++fs_->appends_ == fs_->fail_append_) {
        (void)base_->Append(data.substr(0, data.size() / 2));
        (void)base_->Flush();
        return Status::Internal("transient write error");
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    TornOnceFs* fs_;
    std::unique_ptr<WritableFile> base_;
  };

  Fs* base_;
  const int fail_append_;
  int appends_ = 0;
};

// The data-loss regression: after a failed append left a torn record, the
// file system RECOVERS — a writer that kept appending would put durable
// records beyond the tear, and recovery would silently truncate them away.
// The writer must poison itself and refuse.
TEST(WalWriterTest, PoisonsAfterFailedAppendInsteadOfStrandingRecords) {
  const std::string dir = MakeTempDir();
  TornOnceFs fs(DefaultFs(), /*fail_append=*/2);
  WalWriter::Options options;
  options.sync_policy = SyncPolicy::kBatch;
  std::unique_ptr<WalWriter> writer =
      Unwrap(WalWriter::Open(&fs, dir, options, 1));
  RTIC_ASSERT_OK(writer->Append(1, "first record"));
  EXPECT_FALSE(writer->Append(2, "torn record").ok());

  // The fs works again, but every further write must be refused.
  EXPECT_EQ(writer->Append(2, "would strand").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Rotate().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(writer->broken().ok());

  // On disk: record 1 followed by the tear, nothing beyond it.
  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  WalReader::Record rec;
  ASSERT_TRUE(Unwrap(reader->Next(&rec)));
  EXPECT_EQ(rec.payload, "first record");
  EXPECT_FALSE(Unwrap(reader->Next(&rec)));
  ASSERT_TRUE(reader->damage().has_value());
}

TEST(WalWriterTest, PoisonsAfterFailedSync) {
  const std::string dir = MakeTempDir();
  // kAlways writer: open (1), then per append a file Append and a Sync;
  // the second record's Sync is op 5 and faults.
  FaultInjectingFs fs(DefaultFs(), /*trigger_op=*/5, FaultKind::kFailWrite);
  WalWriter::Options options;
  options.sync_policy = SyncPolicy::kAlways;
  std::unique_ptr<WalWriter> writer =
      Unwrap(WalWriter::Open(&fs, dir, options, 1));
  RTIC_ASSERT_OK(writer->Append(1, "a"));
  EXPECT_FALSE(writer->Append(2, "b").ok());
  ASSERT_TRUE(fs.dead()) << "the trigger op count must hit the sync";
  // Poisoned, not merely unlucky: the refusal is FailedPrecondition from
  // the writer itself, before the (dead) fs is ever consulted.
  EXPECT_EQ(writer->Append(2, "c").code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(writer->broken().ok());
}

TEST(WalReaderTest, TornTailReportsDamageAtExactOffset) {
  const std::string dir = MakeTempDir();
  std::string good = EncodeRecord(1, "first") + EncodeRecord(2, "second");
  std::string torn = EncodeRecord(3, "third");
  torn.resize(torn.size() - 3);
  WriteWholeFile(DefaultFs(), dir + "/" + SegmentFileName(1), good + torn);

  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  WalReader::Record rec;
  EXPECT_TRUE(Unwrap(reader->Next(&rec)));
  EXPECT_TRUE(Unwrap(reader->Next(&rec)));
  EXPECT_FALSE(Unwrap(reader->Next(&rec)));
  ASSERT_TRUE(reader->damage().has_value());
  EXPECT_EQ(reader->damage()->segment, SegmentFileName(1));
  EXPECT_EQ(reader->damage()->offset, good.size());
}

TEST(WalReaderTest, DuplicateSequenceNumberIsDamage) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(DefaultFs(), dir + "/" + SegmentFileName(1),
                 EncodeRecord(1, "a") + EncodeRecord(2, "b") +
                     EncodeRecord(2, "b again"));
  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  WalReader::Record rec;
  EXPECT_TRUE(Unwrap(reader->Next(&rec)));
  EXPECT_TRUE(Unwrap(reader->Next(&rec)));
  EXPECT_FALSE(Unwrap(reader->Next(&rec)));
  ASSERT_TRUE(reader->damage().has_value());
  EXPECT_NE(reader->damage()->reason.find("discontinuity"), std::string::npos);
}

TEST(WalReaderTest, SegmentChainGapIsDamage) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(DefaultFs(), dir + "/" + SegmentFileName(1),
                 EncodeRecord(1, "a"));
  // Records 2..4 missing: next segment claims to start at 5.
  WriteWholeFile(DefaultFs(), dir + "/" + SegmentFileName(5),
                 EncodeRecord(5, "e"));
  std::unique_ptr<WalReader> reader = Unwrap(WalReader::Open(DefaultFs(), dir));
  WalReader::Record rec;
  EXPECT_TRUE(Unwrap(reader->Next(&rec)));
  EXPECT_FALSE(Unwrap(reader->Next(&rec)));
  ASSERT_TRUE(reader->damage().has_value());
  EXPECT_EQ(reader->damage()->segment, SegmentFileName(5));
  EXPECT_EQ(reader->damage()->offset, 0u);
}

// ---- fault injection ---------------------------------------------------------

TEST(FaultInjectingFsTest, CountsOpsWithoutInjectingWhenDisabled) {
  const std::string dir = MakeTempDir();
  FaultInjectingFs fs(DefaultFs(), /*trigger_op=*/0, FaultKind::kFailWrite);
  WriteWholeFile(&fs, dir + "/f", "data");
  EXPECT_GT(fs.ops(), 0u);
  EXPECT_FALSE(fs.dead());
  EXPECT_EQ(Unwrap(fs.ReadFile(dir + "/f")), "data");
}

TEST(FaultInjectingFsTest, FailWriteLandsNothingThenEverythingFails) {
  const std::string dir = MakeTempDir();
  Fs* posix = DefaultFs();
  // Count the ops of the reference run first.
  FaultInjectingFs counter(posix, 0, FaultKind::kFailWrite);
  WriteWholeFile(&counter, dir + "/ref", "data");

  // Now fail at the Append.
  FaultInjectingFs fs(posix, /*trigger_op=*/2, FaultKind::kFailWrite);
  std::unique_ptr<WritableFile> f =
      Unwrap(fs.NewWritableFile(dir + "/f", true));
  EXPECT_FALSE(f->Append("data").ok());
  EXPECT_TRUE(fs.dead());
  EXPECT_FALSE(f->Close().ok());
  EXPECT_FALSE(fs.ReadFile(dir + "/ref").ok()) << "dead fs must not read";
  EXPECT_EQ(Unwrap(posix->ReadFile(dir + "/f")), "");
}

TEST(FaultInjectingFsTest, ShortWriteLandsAPrefix) {
  const std::string dir = MakeTempDir();
  FaultInjectingFs fs(DefaultFs(), /*trigger_op=*/2, FaultKind::kShortWrite);
  std::unique_ptr<WritableFile> f =
      Unwrap(fs.NewWritableFile(dir + "/f", true));
  EXPECT_FALSE(f->Append("0123456789").ok());
  std::string landed = Unwrap(DefaultFs()->ReadFile(dir + "/f"));
  EXPECT_LT(landed.size(), 10u);
  EXPECT_EQ(landed, std::string("0123456789").substr(0, landed.size()));
}

TEST(FaultInjectingFsTest, BitFlipLandsFullSizeButCorrupted) {
  const std::string dir = MakeTempDir();
  FaultInjectingFs fs(DefaultFs(), /*trigger_op=*/2, FaultKind::kBitFlip);
  std::unique_ptr<WritableFile> f =
      Unwrap(fs.NewWritableFile(dir + "/f", true));
  EXPECT_FALSE(f->Append("0123456789").ok());
  std::string landed = Unwrap(DefaultFs()->ReadFile(dir + "/f"));
  EXPECT_EQ(landed.size(), 10u);
  EXPECT_NE(landed, "0123456789");
}

}  // namespace
}  // namespace wal
}  // namespace rtic
