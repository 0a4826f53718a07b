#ifndef SAQL_CORE_VALUE_H_
#define SAQL_CORE_VALUE_H_

#include <cstdint>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/result.h"
#include "core/status.h"

namespace saql {

/// Ordered set of strings used by invariant models (`set(...)` aggregate,
/// `union` / `diff` / `intersect` operators). Ordered so that rendering and
/// comparisons are deterministic across runs.
using StringSet = std::set<std::string>;

/// Dynamically typed value flowing through the SAQL evaluator: literals in
/// queries, event attribute values, aggregate results, and alert-expression
/// intermediates.
///
/// Supported kinds: null (monostate), bool, int64, double, string, and
/// string set. Arithmetic promotes int64 to double when mixed.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kFloat, kString, kSet };

  Value() : data_(std::monostate{}) {}
  explicit Value(bool b) : data_(b) {}
  explicit Value(int64_t i) : data_(i) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(const char* s) : data_(std::string(s)) {}
  explicit Value(StringSet s) : data_(std::move(s)) {}

  static Value Null() { return Value(); }

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_float() const { return kind() == Kind::kFloat; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_set() const { return kind() == Kind::kSet; }
  bool is_numeric() const { return is_int() || is_float(); }

  /// Raw accessors. Precondition: the value holds the requested kind.
  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsFloat() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const StringSet& AsSet() const { return std::get<StringSet>(data_); }

  /// Numeric coercion: int and float read as double; bool reads as 0/1.
  /// Returns an error for strings, sets, and null.
  Result<double> ToDouble() const;

  /// Truthiness for alert conditions: bool as-is; numbers true when nonzero;
  /// strings true when non-empty; sets true when non-empty; null false.
  bool Truthy() const;

  /// Renders for display / CSV output. Sets render as `{a, b, c}`.
  std::string ToString() const;

  /// Appends `ToString()`'s rendering to `out`; allocates only when `out`
  /// must grow.
  void AppendTo(std::string& out) const;

  /// Deep equality with numeric coercion (1 == 1.0 is true).
  bool Equals(const Value& other) const;

  /// Three-way comparison for ordered kinds. Returns error when the kinds
  /// are not comparable (e.g., string vs int, any set).
  Result<int> Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Equals(other); }

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, StringSet>
      data_;
};

/// Name of a value kind for diagnostics ("int", "set", ...).
const char* ValueKindName(Value::Kind kind);

/// Arithmetic on values with int->float promotion. Division by zero and
/// non-numeric operands produce RuntimeError.
Result<Value> ValueAdd(const Value& a, const Value& b);
Result<Value> ValueSub(const Value& a, const Value& b);
Result<Value> ValueMul(const Value& a, const Value& b);
Result<Value> ValueDiv(const Value& a, const Value& b);
Result<Value> ValueMod(const Value& a, const Value& b);

/// Set algebra used by invariant models. Both operands must be sets, except
/// that null is treated as the empty set (the `empty_set` literal).
Result<Value> ValueUnion(const Value& a, const Value& b);
Result<Value> ValueDiff(const Value& a, const Value& b);
Result<Value> ValueIntersect(const Value& a, const Value& b);

/// Membership: `a in b` where `b` is a set and `a` a string.
Result<Value> ValueIn(const Value& a, const Value& b);

/// `|x|`: set cardinality, string length, or numeric absolute value.
Result<Value> ValueSize(const Value& v);

}  // namespace saql

#endif  // SAQL_CORE_VALUE_H_
