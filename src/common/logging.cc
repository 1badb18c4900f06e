#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace lan {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

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
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

std::mutex& EmitMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Trim directory components for readability.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  const bool enabled =
      static_cast<int>(level_) >= g_min_level.load(std::memory_order_relaxed);
  if (enabled || level_ == LogLevel::kFatal) {
    std::lock_guard<std::mutex> lock(EmitMutex());
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace lan
