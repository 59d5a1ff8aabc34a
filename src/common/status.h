#ifndef OE_COMMON_STATUS_H_
#define OE_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace oe {

/// Error categories used across the library. Mirrors the usual
/// database-system convention (RocksDB/Arrow-style status codes): functions
/// that can fail return a Status (or Result<T>) instead of throwing.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfSpace = 4,
  kIoError = 5,
  kCorruption = 6,
  kNotSupported = 7,
  kFailedPrecondition = 8,
  kAborted = 9,
  kTimedOut = 10,
  kInternal = 11,
  /// The target is temporarily unreachable (node down, connection refused);
  /// the operation did not happen and is safe to retry.
  kUnavailable = 12,
  /// A keyed PS request reached a node that does not own one of its keys
  /// under the cluster's fixed route. The request was rejected wholesale —
  /// nothing was applied. A client and a service disagreeing on the route
  /// is a misconfiguration, so this is a hard error: NOT transport-
  /// retryable, since resending the same bytes to the same node cannot
  /// succeed.
  kWrongOwner = 13,
};

/// Returns a short human-readable name ("Ok", "IoError", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value. The OK status carries no
/// allocation; error statuses hold a code plus a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    }
    return *this;
  }
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
  static Status OutOfSpace(std::string msg) {
    return Status(StatusCode::kOutOfSpace, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status WrongOwner(std::string msg) {
    return Status(StatusCode::kWrongOwner, std::move(msg));
  }
  /// An error status with a caller-chosen code (OK if code is kOk);
  /// used where the code is propagated from another status.
  static Status FromCode(StatusCode code, std::string msg) {
    return code == StatusCode::kOk ? OK() : Status(code, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  /// The error message; empty for OK.
  std::string_view message() const {
    return rep_ ? std::string_view(rep_->message) : std::string_view();
  }

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsOutOfSpace() const { return code() == StatusCode::kOutOfSpace; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsWrongOwner() const { return code() == StatusCode::kWrongOwner; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };

  Status(StatusCode code, std::string msg)
      : rep_(std::make_unique<Rep>(Rep{code, std::move(msg)})) {}

  std::unique_ptr<Rep> rep_;  // null == OK
};

/// A value-or-Status union, returned by fallible functions that produce a
/// value. `ok()` must be checked before calling `value()`.
template <typename T>
class Result {
 public:
  /// Implicit from value and from error Status, so call sites can
  /// `return value;` or `return Status::NotFound(...)`.
  Result(T value) : value_(std::move(value)) {}             // NOLINT
  Result(Status status) : status_(std::move(status)) {}     // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { return value_; }
  const T& value() const& { return value_; }
  T&& value() && { return std::move(value_); }

  /// Moves the value out; precondition: ok().
  T ValueOrDie() && { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

}  // namespace oe

/// Propagates a non-OK Status out of the current function.
#define OE_RETURN_IF_ERROR(expr)                \
  do {                                          \
    ::oe::Status _oe_status = (expr);           \
    if (!_oe_status.ok()) return _oe_status;    \
  } while (0)

/// Evaluates a Result<T> expression, propagating errors, else binds `lhs`.
#define OE_ASSIGN_OR_RETURN(lhs, expr)                   \
  auto OE_CONCAT_(_oe_result_, __LINE__) = (expr);       \
  if (!OE_CONCAT_(_oe_result_, __LINE__).ok())           \
    return OE_CONCAT_(_oe_result_, __LINE__).status();   \
  lhs = std::move(OE_CONCAT_(_oe_result_, __LINE__)).value()

#define OE_CONCAT_INNER_(a, b) a##b
#define OE_CONCAT_(a, b) OE_CONCAT_INNER_(a, b)

#endif  // OE_COMMON_STATUS_H_
