// Lightweight Status / Result types for error propagation without exceptions.
//
// DGCL is built to run inside training loops where exceptions are disabled or
// unwelcome; every fallible operation returns a Status (or Result<T>) that the
// caller must inspect. The vocabulary mirrors absl::Status but carries no
// dependency.

#ifndef DGCL_COMMON_STATUS_H_
#define DGCL_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace dgcl {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,  // e.g. simulated device out of memory
  kInternal,
  kUnimplemented,
  kDeadlineExceeded,  // a bounded wait (peer flag, send retry) ran out of time
  kUnavailable,       // a peer or transport is down / a pass was aborted
};

// Human-readable name of a status code ("OK", "INVALID_ARGUMENT", ...).
std::string_view StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on the OK path (no allocation).
class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// A value-or-error. Engineered for the common case: construct from T or Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  // Precondition: ok(). Violations throw std::bad_optional_access.
  T& value() & { return value_.value(); }
  const T& value() const& { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK whenever value_ is set
};

// Propagate a non-OK Status out of the enclosing function.
#define DGCL_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::dgcl::Status _dgcl_status = (expr);   \
    if (!_dgcl_status.ok()) {               \
      return _dgcl_status;                  \
    }                                       \
  } while (0)

// Assign the value of a Result<T> expression to `lhs`, or propagate its error.
#define DGCL_ASSIGN_OR_RETURN(lhs, expr)                   \
  DGCL_ASSIGN_OR_RETURN_IMPL_(                             \
      DGCL_STATUS_CONCAT_(_dgcl_result, __LINE__), lhs, expr)

#define DGCL_STATUS_CONCAT_INNER_(a, b) a##b
#define DGCL_STATUS_CONCAT_(a, b) DGCL_STATUS_CONCAT_INNER_(a, b)
#define DGCL_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) {                                  \
    return tmp.status();                            \
  }                                                 \
  lhs = std::move(tmp).value()

}  // namespace dgcl

#endif  // DGCL_COMMON_STATUS_H_
