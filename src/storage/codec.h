// Token codec for checkpoints (engines and monitor).
//
// Bounded history encoding means a checker's complete state — auxiliary
// network, clock, cumulative domain — is small and self-contained, so a
// monitor can checkpoint it and resume after a restart WITHOUT replaying
// any history. This header provides the portable text encoding
// (whitespace-separated tokens; strings are length-prefixed and may contain
// any bytes; doubles use hex-float for exact round-trips).

#ifndef RTIC_STORAGE_CODEC_H_
#define RTIC_STORAGE_CODEC_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "types/tuple.h"
#include "types/value.h"

namespace rtic {

/// Appends tokens to a checkpoint payload.
class StateWriter {
 public:
  void WriteInt(std::int64_t v);
  void WriteSize(std::size_t v) { WriteInt(static_cast<std::int64_t>(v)); }

  /// Tagged scalar: `i:<dec>`, `d:<hexfloat>`, `s:<len>:<raw>`, `b:<0|1>`.
  void WriteValue(const Value& v);

  /// Arity followed by each value.
  void WriteTuple(const Tuple& t);

  /// Raw (length-prefixed) string token.
  void WriteString(std::string_view s);

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Consumes tokens from a checkpoint payload; every reader returns
/// InvalidArgument on malformed input.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  Result<std::int64_t> ReadInt();
  Result<Value> ReadValue();
  Result<Tuple> ReadTuple();
  Result<std::string> ReadString();

  /// True when all tokens are consumed.
  bool AtEnd();

  /// Offset just past the last token read.
  std::size_t position() const { return pos_; }

 private:
  void SkipSpace();
  Result<std::string> NextToken();

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace rtic

#endif  // RTIC_STORAGE_CODEC_H_
