#include "core/value.h"

#include <charconv>
#include <cmath>

namespace saql {

namespace {

Status NonNumericError(const char* op, const Value& a, const Value& b) {
  std::string msg = std::string("operator '") + op +
                    "' requires numeric operands, got " +
                    ValueKindName(a.kind()) + " and " + ValueKindName(b.kind());
  return Status::RuntimeError(std::move(msg));
}

}  // namespace

const char* ValueKindName(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kBool:
      return "bool";
    case Value::Kind::kInt:
      return "int";
    case Value::Kind::kFloat:
      return "float";
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kSet:
      return "set";
  }
  return "unknown";
}

Result<double> Value::ToDouble() const {
  switch (kind()) {
    case Kind::kBool:
      return AsBool() ? 1.0 : 0.0;
    case Kind::kInt:
      return static_cast<double>(AsInt());
    case Kind::kFloat:
      return AsFloat();
    default:
      return Status::RuntimeError(std::string("cannot convert ") +
                                  ValueKindName(kind()) + " to number");
  }
}

bool Value::Truthy() const {
  switch (kind()) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return AsBool();
    case Kind::kInt:
      return AsInt() != 0;
    case Kind::kFloat:
      return AsFloat() != 0.0;
    case Kind::kString:
      return !AsString().empty();
    case Kind::kSet:
      return !AsSet().empty();
  }
  return false;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Value::AppendTo(std::string& out) const {
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += AsBool() ? "true" : "false";
      return;
    case Kind::kInt:
    case Kind::kFloat: {
      // Ints in decimal; floats as `std::ostream << double` prints them
      // (`%g`, six significant digits), without a stream or a temporary.
      char buf[32];
      std::to_chars_result r =
          is_int() ? std::to_chars(buf, buf + sizeof(buf), AsInt())
                   : std::to_chars(buf, buf + sizeof(buf), AsFloat(),
                                   std::chars_format::general, 6);
      out.append(buf, r.ptr);
      return;
    }
    case Kind::kString:
      out += AsString();
      return;
    case Kind::kSet: {
      out += '{';
      bool first = true;
      for (const std::string& s : AsSet()) {
        if (!first) out += ", ";
        out += s;
        first = false;
      }
      out += '}';
      return;
    }
  }
}

bool Value::Equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    return ToDouble().value() == other.ToDouble().value();
  }
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return AsBool() == other.AsBool();
    case Kind::kString:
      return AsString() == other.AsString();
    case Kind::kSet:
      return AsSet() == other.AsSet();
    default:
      return false;  // numeric handled above
  }
}

Result<int> Value::Compare(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = ToDouble().value();
    double b = other.ToDouble().value();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (is_bool() && other.is_bool()) {
    return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
  }
  return Status::RuntimeError(std::string("cannot compare ") +
                              ValueKindName(kind()) + " with " +
                              ValueKindName(other.kind()));
}

namespace {

/// Applies a numeric binary op, keeping int results when both inputs are int.
template <typename IntOp, typename FloatOp>
Result<Value> NumericBinOp(const char* name, const Value& a, const Value& b,
                           IntOp int_op, FloatOp float_op) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return NonNumericError(name, a, b);
  }
  if (a.is_int() && b.is_int()) {
    return int_op(a.AsInt(), b.AsInt());
  }
  return float_op(a.ToDouble().value(), b.ToDouble().value());
}

}  // namespace

Result<Value> ValueAdd(const Value& a, const Value& b) {
  if (a.is_string() && b.is_string()) {
    return Value(a.AsString() + b.AsString());
  }
  if (a.is_set() || b.is_set()) return ValueUnion(a, b);
  return NumericBinOp(
      "+", a, b,
      [](int64_t x, int64_t y) -> Result<Value> { return Value(x + y); },
      [](double x, double y) -> Result<Value> { return Value(x + y); });
}

Result<Value> ValueSub(const Value& a, const Value& b) {
  if (a.is_set() || b.is_set()) return ValueDiff(a, b);
  return NumericBinOp(
      "-", a, b,
      [](int64_t x, int64_t y) -> Result<Value> { return Value(x - y); },
      [](double x, double y) -> Result<Value> { return Value(x - y); });
}

Result<Value> ValueMul(const Value& a, const Value& b) {
  return NumericBinOp(
      "*", a, b,
      [](int64_t x, int64_t y) -> Result<Value> { return Value(x * y); },
      [](double x, double y) -> Result<Value> { return Value(x * y); });
}

Result<Value> ValueDiv(const Value& a, const Value& b) {
  return NumericBinOp(
      "/", a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        if (y == 0) return Status::RuntimeError("division by zero");
        // Integer division in queries follows arithmetic expectations:
        // produce a float so `sum/3` behaves like an average component.
        return Value(static_cast<double>(x) / static_cast<double>(y));
      },
      [](double x, double y) -> Result<Value> {
        if (y == 0.0) return Status::RuntimeError("division by zero");
        return Value(x / y);
      });
}

Result<Value> ValueMod(const Value& a, const Value& b) {
  return NumericBinOp(
      "%", a, b,
      [](int64_t x, int64_t y) -> Result<Value> {
        if (y == 0) return Status::RuntimeError("modulo by zero");
        return Value(x % y);
      },
      [](double x, double y) -> Result<Value> {
        if (y == 0.0) return Status::RuntimeError("modulo by zero");
        return Value(std::fmod(x, y));
      });
}

namespace {

/// Null operands act as the empty set so `a = empty_set; a = a union s`
/// composes naturally.
Result<StringSet> CoerceSet(const Value& v, const char* op) {
  if (v.is_null()) return StringSet{};
  if (v.is_set()) return v.AsSet();
  if (v.is_string()) return StringSet{v.AsString()};
  return Status::RuntimeError(std::string("operator '") + op +
                              "' requires set operands, got " +
                              ValueKindName(v.kind()));
}

}  // namespace

Result<Value> ValueUnion(const Value& a, const Value& b) {
  SAQL_ASSIGN_OR_RETURN(StringSet sa, CoerceSet(a, "union"));
  SAQL_ASSIGN_OR_RETURN(StringSet sb, CoerceSet(b, "union"));
  sa.insert(sb.begin(), sb.end());
  return Value(std::move(sa));
}

Result<Value> ValueDiff(const Value& a, const Value& b) {
  SAQL_ASSIGN_OR_RETURN(StringSet sa, CoerceSet(a, "diff"));
  SAQL_ASSIGN_OR_RETURN(StringSet sb, CoerceSet(b, "diff"));
  StringSet out;
  for (const std::string& s : sa) {
    if (sb.find(s) == sb.end()) out.insert(s);
  }
  return Value(std::move(out));
}

Result<Value> ValueIntersect(const Value& a, const Value& b) {
  SAQL_ASSIGN_OR_RETURN(StringSet sa, CoerceSet(a, "intersect"));
  SAQL_ASSIGN_OR_RETURN(StringSet sb, CoerceSet(b, "intersect"));
  StringSet out;
  for (const std::string& s : sa) {
    if (sb.find(s) != sb.end()) out.insert(s);
  }
  return Value(std::move(out));
}

Result<Value> ValueIn(const Value& a, const Value& b) {
  SAQL_ASSIGN_OR_RETURN(StringSet sb, CoerceSet(b, "in"));
  if (!a.is_string()) {
    return Status::RuntimeError("'in' requires a string left operand");
  }
  return Value(sb.find(a.AsString()) != sb.end());
}

Result<Value> ValueSize(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kSet:
      return Value(static_cast<int64_t>(v.AsSet().size()));
    case Value::Kind::kString:
      return Value(static_cast<int64_t>(v.AsString().size()));
    case Value::Kind::kInt:
      return Value(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
    case Value::Kind::kFloat:
      return Value(std::fabs(v.AsFloat()));
    case Value::Kind::kNull:
      return Value(static_cast<int64_t>(0));
    default:
      return Status::RuntimeError(std::string("|x| not defined for ") +
                                  ValueKindName(v.kind()));
  }
}

}  // namespace saql
