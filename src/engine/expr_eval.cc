#include "engine/expr_eval.h"

#include <cmath>

#include "core/like_matcher.h"
#include "core/string_util.h"
#include "parser/analyzer.h"

namespace saql {

Result<Value> EvalContext::ResolveAggregate(const Expr& call) const {
  (void)call;
  return Status::RuntimeError("aggregate evaluated outside a window close");
}

namespace {

bool HasWildcard(const std::string& s) {
  return s.find('%') != std::string::npos ||
         s.find('_') != std::string::npos;
}

/// Equality with LIKE upgrade for wildcard strings.
bool ValuesEqual(const Value& a, const Value& b) {
  if (a.is_string() && b.is_string()) {
    if (HasWildcard(b.AsString())) {
      return LikeMatcher(b.AsString()).Matches(a.AsString());
    }
    if (HasWildcard(a.AsString())) {
      return LikeMatcher(a.AsString()).Matches(b.AsString());
    }
    // Entity names compare case-insensitively throughout SAQL.
    return AsciiCaseEqual(a.AsString(), b.AsString());
  }
  return a.Equals(b);
}

Result<Value> EvalBinary(const Expr& e, const EvalContext& ctx);
Result<Value> EvalUnary(const Expr& e, const EvalContext& ctx);
Result<Value> EvalCall(const Expr& e, const EvalContext& ctx);

}  // namespace

Result<Value> EvaluateExpr(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kRef:
      return ctx.ResolveRef(expr);
    case ExprKind::kCall:
      return EvalCall(expr, ctx);
    case ExprKind::kBinary:
      return EvalBinary(expr, ctx);
    case ExprKind::kUnary:
      return EvalUnary(expr, ctx);
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvaluateBool(const Expr& expr, const EvalContext& ctx) {
  SAQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(expr, ctx));
  return v.Truthy();
}

namespace {

Result<Value> EvalBinary(const Expr& e, const EvalContext& ctx) {
  // Short-circuit logical operators; null acts as false.
  if (e.bin_op == BinOp::kAnd) {
    SAQL_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*e.lhs, ctx));
    if (!l.Truthy()) return Value(false);
    SAQL_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*e.rhs, ctx));
    return Value(r.Truthy());
  }
  if (e.bin_op == BinOp::kOr) {
    SAQL_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*e.lhs, ctx));
    if (l.Truthy()) return Value(true);
    SAQL_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*e.rhs, ctx));
    return Value(r.Truthy());
  }

  SAQL_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*e.lhs, ctx));
  SAQL_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*e.rhs, ctx));

  switch (e.bin_op) {
    case BinOp::kEq:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(ValuesEqual(l, r));
    case BinOp::kNe:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(!ValuesEqual(l, r));
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (l.is_null() || r.is_null()) return Value(false);
      SAQL_ASSIGN_OR_RETURN(int c, l.Compare(r));
      switch (e.bin_op) {
        case BinOp::kLt:
          return Value(c < 0);
        case BinOp::kLe:
          return Value(c <= 0);
        case BinOp::kGt:
          return Value(c > 0);
        default:
          return Value(c >= 0);
      }
    }
    case BinOp::kIn:
      if (l.is_null() || r.is_null()) return Value(false);
      return ValueIn(l, r);
    case BinOp::kUnion:
      return ValueUnion(l, r);
    case BinOp::kDiff:
      return ValueDiff(l, r);
    case BinOp::kIntersect:
      return ValueIntersect(l, r);
    case BinOp::kAdd:
      if (l.is_null() || r.is_null()) return Value::Null();
      return ValueAdd(l, r);
    case BinOp::kSub:
      if (l.is_null() || r.is_null()) return Value::Null();
      return ValueSub(l, r);
    case BinOp::kMul:
      if (l.is_null() || r.is_null()) return Value::Null();
      return ValueMul(l, r);
    case BinOp::kDiv:
      if (l.is_null() || r.is_null()) return Value::Null();
      return ValueDiv(l, r);
    case BinOp::kMod:
      if (l.is_null() || r.is_null()) return Value::Null();
      return ValueMod(l, r);
    case BinOp::kAnd:
    case BinOp::kOr:
      break;  // handled above
  }
  return Status::Internal("bad binary operator");
}

Result<Value> EvalUnary(const Expr& e, const EvalContext& ctx) {
  SAQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e.lhs, ctx));
  switch (e.un_op) {
    case UnOp::kNot:
      return Value(!v.Truthy());
    case UnOp::kNeg: {
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value(-v.AsInt());
      SAQL_ASSIGN_OR_RETURN(double d, v.ToDouble());
      return Value(-d);
    }
    case UnOp::kSize:
      return ValueSize(v);
  }
  return Status::Internal("bad unary operator");
}

Result<Value> EvalCall(const Expr& e, const EvalContext& ctx) {
  std::string callee = ToLower(e.callee);
  if (IsAggregateFunction(callee)) {
    return ctx.ResolveAggregate(e);
  }
  auto num_arg = [&](int i) -> Result<double> {
    SAQL_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e.args[static_cast<size_t>(i)], ctx));
    if (v.is_null()) return Status::NotFound("null argument");
    return v.ToDouble();
  };
  if (callee == "abs") {
    Result<double> a = num_arg(0);
    if (!a.ok()) return Value::Null();
    return Value(std::fabs(*a));
  }
  if (callee == "sqrt") {
    Result<double> a = num_arg(0);
    if (!a.ok()) return Value::Null();
    if (*a < 0) return Status::RuntimeError("sqrt of negative number");
    return Value(std::sqrt(*a));
  }
  if (callee == "log") {
    Result<double> a = num_arg(0);
    if (!a.ok()) return Value::Null();
    if (*a <= 0) return Status::RuntimeError("log of non-positive number");
    return Value(std::log(*a));
  }
  if (callee == "exp") {
    Result<double> a = num_arg(0);
    if (!a.ok()) return Value::Null();
    return Value(std::exp(*a));
  }
  if (callee == "min2" || callee == "max2") {
    Result<double> a = num_arg(0);
    Result<double> b = num_arg(1);
    if (!a.ok() || !b.ok()) return Value::Null();
    return Value(callee == "min2" ? std::min(*a, *b) : std::max(*a, *b));
  }
  if (callee == "pow") {
    Result<double> a = num_arg(0);
    Result<double> b = num_arg(1);
    if (!a.ok() || !b.ok()) return Value::Null();
    return Value(std::pow(*a, *b));
  }
  return Status::RuntimeError("unknown function '" + e.callee + "'");
}

}  // namespace

}  // namespace saql
