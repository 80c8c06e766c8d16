#include "common/logging.h"

#include <atomic>
#include <iostream>
#include <mutex>

namespace rtic {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};

// Serializes emission so lines from concurrent threads (tenant workers,
// the log shipper) do not interleave mid-line.
std::mutex& EmitMutex() {
  static std::mutex mu;
  return mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >= static_cast<int>(GetLogLevel())) {
    std::lock_guard<std::mutex> lock(EmitMutex());
    std::cerr << stream_.str() << std::endl;
  }
}

}  // namespace internal
}  // namespace rtic
