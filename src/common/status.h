#ifndef LEVA_COMMON_STATUS_H_
#define LEVA_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace leva {

/// Error categories used throughout Leva. Mirrors the RocksDB/Arrow style of
/// exception-free error propagation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kNotImplemented,
  kIOError,
};

/// Returns a short human-readable name for `code` ("OK", "InvalidArgument"...).
std::string_view StatusCodeToString(StatusCode code);

/// A lightweight success-or-error value. All fallible Leva APIs return a
/// Status (or a Result<T>, see result.h) instead of throwing.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace leva

/// Propagates a non-OK Status from the enclosing function.
#define LEVA_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::leva::Status _leva_status = (expr);         \
    if (!_leva_status.ok()) return _leva_status;  \
  } while (0)

#endif  // LEVA_COMMON_STATUS_H_
