// Status: value-type error propagation for all fallible library paths.
//
// The library does not throw exceptions (RocksDB/Arrow idiom); every
// operation that can fail returns a Status or a Result<T> (see result.h).

#ifndef PSGRAPH_COMMON_STATUS_H_
#define PSGRAPH_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

namespace psgraph {

/// Error category carried by a non-ok Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kIoError = 4,
  kMemoryLimitExceeded = 5,  ///< a simulated container ran out of memory (OOM)
  kFailedPrecondition = 6,
  kOutOfRange = 7,
  kNotImplemented = 8,
  kUnavailable = 10,  ///< a node is down / not reachable
  kInternal = 11,
};

/// Human-readable name of a StatusCode ("MemoryLimitExceeded", ...).
std::string_view StatusCodeToString(StatusCode code);

/// Outcome of an operation: either OK or a (code, message) pair.
///
/// Statuses are cheap to copy in the OK case (no allocation) and carry a
/// heap-allocated message otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status MemoryLimitExceeded(std::string msg) {
    return Status(StatusCode::kMemoryLimitExceeded, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsMemoryLimitExceeded() const {
    return code_ == StatusCode::kMemoryLimitExceeded;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

}  // namespace psgraph

/// Propagates a non-OK Status to the caller.
#define PSG_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::psgraph::Status _st = (expr);             \
    if (!_st.ok()) return _st;                  \
  } while (false)

/// Aborts the process if `expr` is not OK. For examples/benches/tests only.
#define PSG_CHECK_OK(expr)                                             \
  do {                                                                 \
    ::psgraph::Status _st = (expr);                                    \
    if (!_st.ok()) {                                                   \
      std::fprintf(stderr, "PSG_CHECK_OK failed at %s:%d: %s\n",       \
                   __FILE__, __LINE__, _st.ToString().c_str());        \
      std::abort();                                                    \
    }                                                                  \
  } while (false)

#endif  // PSGRAPH_COMMON_STATUS_H_
