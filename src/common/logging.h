// Minimal leveled logging to stderr, dependency-free. Thread-safe: the
// level filter is atomic and whole lines are emitted under a mutex, so
// messages from the server's tenant workers and the log shipper never
// interleave mid-line.

#ifndef RTIC_COMMON_LOGGING_H_
#define RTIC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace rtic {

/// Log severity, ordered.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum severity that is emitted (default: kWarning so
/// library users are not spammed).
void SetLogLevel(LogLevel level);

/// Returns the current global minimum severity.
LogLevel GetLogLevel();

namespace internal {

/// Stream-style log line; emits on destruction if `level` passes the filter.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace rtic

#define RTIC_LOG(level)                                                  \
  ::rtic::internal::LogMessage(::rtic::LogLevel::k##level, __FILE__,     \
                               __LINE__)                                 \
      .stream()

#endif  // RTIC_COMMON_LOGGING_H_
