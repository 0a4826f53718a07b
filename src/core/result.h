#ifndef SAQL_CORE_RESULT_H_
#define SAQL_CORE_RESULT_H_

#include <optional>
#include <utility>

#include "core/status.h"

namespace saql {

/// Holds either a value of type `T` or an error `Status`. Analogous to
/// `absl::StatusOr<T>` / `arrow::Result<T>`; the value is only accessible
/// when `ok()` is true.
template <typename T>
class Result {
 public:
  /// Constructs a successful result (implicit, so functions can
  /// `return value;`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs an error result. `status` must not be OK; an OK status is
  /// converted to an Internal error to keep the invariant.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Accessors; must only be called when `ok()`.
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates the error of a `Result<T>` expression, otherwise assigns the
/// value into `lhs` (an existing variable or a new declaration).
#define SAQL_ASSIGN_OR_RETURN(lhs, expr)                      \
  SAQL_ASSIGN_OR_RETURN_IMPL_(                                \
      SAQL_RESULT_CONCAT_(_saql_result, __LINE__), lhs, expr)

#define SAQL_RESULT_CONCAT_INNER_(a, b) a##b
#define SAQL_RESULT_CONCAT_(a, b) SAQL_RESULT_CONCAT_INNER_(a, b)
#define SAQL_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace saql

#endif  // SAQL_CORE_RESULT_H_
