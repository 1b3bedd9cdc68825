#include "common/logging.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace psgraph {

namespace {
constexpr LogLevel kMinLogLevel = LogLevel::kInfo;
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

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file)
    : enabled_(level >= kMinLogLevel),
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
