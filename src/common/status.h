// Minimal error-propagation type used across the whole engine. Kept
// header-only so leaf layers (compress, vec) don't need a common .cc
// dependency.
#ifndef X100IR_COMMON_STATUS_H_
#define X100IR_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace x100ir {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kIOError,
  kInternal,
  kUnimplemented,
  kFailedPrecondition,
  kResourceExhausted,
  // A per-query deadline expired (or the query was cancelled) mid-flight.
  kDeadlineExceeded,
  // The operation failed transiently (injected or real fault, service
  // refusing under the degradation ladder) — retrying may succeed. The
  // only code the storage retry loop treats as retryable.
  kUnavailable,
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kIOError:
      return "IO_ERROR";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status OutOfRange(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status IOError(std::string msg) {
  return Status(StatusCode::kIOError, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status DeadlineExceeded(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status Unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}

// Fault classification (DESIGN.md §9.4): only Unavailable is transient.
// Everything else — IOError (torn/corrupt page), Internal, ... — is
// permanent and must fail the query instead of burning its retry budget.
inline bool IsTransient(const Status& s) {
  return s.code() == StatusCode::kUnavailable;
}

// Early-return helper for Status-returning functions.
#define X100IR_RETURN_IF_ERROR(expr)             \
  do {                                           \
    ::x100ir::Status _status = (expr);           \
    if (!_status.ok()) return _status;           \
  } while (0)

}  // namespace x100ir

#endif  // X100IR_COMMON_STATUS_H_
