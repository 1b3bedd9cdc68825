#include "common/status.h"

namespace psgraph {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kMemoryLimitExceeded:
      return "MemoryLimitExceeded";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += msg_;
  return out;
}

}  // namespace psgraph
