#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace psgraph {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::mutex g_emit_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?????";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file)
    : enabled_(static_cast<int>(level) >=
               g_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) {
    stream_ << "[" << LevelName(level_) << " " << Basename(file) << "] ";
  }
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace psgraph
