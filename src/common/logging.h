// Minimal leveled logging. Thread-safe, writes to stderr.
//
// Usage: PSG_LOG(Info) << "loaded " << n << " edges";
//
// Each line starts with "[LEVEL file.cc] ". The prefix names the source
// file but not the line, so the printed output of two builds differs
// only where their messages do.

#ifndef PSGRAPH_COMMON_LOGGING_H_
#define PSGRAPH_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace psgraph {

/// Messages below kInfo are dropped.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace internal {

/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace psgraph

#define PSG_LOG(severity)          \
  ::psgraph::internal::LogMessage( \
      ::psgraph::LogLevel::k##severity, __FILE__)

#endif  // PSGRAPH_COMMON_LOGGING_H_
