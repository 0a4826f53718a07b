#include "engine/expr_eval.h"

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "parser/parser.h"

namespace saql {
namespace {

/// Context with a fixed variable table for standalone expression tests.
class MapContext : public EvalContext {
 public:
  void Set(const std::string& name, Value v) { vars_[name] = std::move(v); }

  Result<Value> ResolveRef(const Expr& ref) const override {
    std::string key = ref.base;
    if (!ref.field.empty()) key += "." + ref.field;
    auto it = vars_.find(key);
    if (it == vars_.end()) return Value::Null();
    return it->second;
  }

 private:
  std::map<std::string, Value> vars_;
};

/// Parses an expression by wrapping it into a minimal query's alert clause.
ExprPtr ParseExpr(const std::string& text) {
  Result<Query> q =
      ParseSaql("proc p read file f as e alert " + text + " return p");
  EXPECT_TRUE(q.ok()) << q.status();
  return q.ok() ? std::move(q.value().alert) : nullptr;
}

Value Eval(const std::string& text, const MapContext& ctx = MapContext{}) {
  ExprPtr e = ParseExpr(text);
  EXPECT_TRUE(e != nullptr);
  Result<Value> v = EvaluateExpr(*e, ctx);
  EXPECT_TRUE(v.ok()) << v.status();
  return v.ok() ? *v : Value::Null();
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").AsInt(), 7);
  EXPECT_DOUBLE_EQ(Eval("(1 + 2) / 2").AsFloat(), 1.5);
  EXPECT_EQ(Eval("10 % 3").AsInt(), 1);
  EXPECT_EQ(Eval("-5 + 2").AsInt(), -3);
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(Eval("3 > 2").AsBool());
  EXPECT_FALSE(Eval("3 < 2").AsBool());
  EXPECT_TRUE(Eval("2 <= 2").AsBool());
  EXPECT_TRUE(Eval("3 == 3").AsBool());
  EXPECT_TRUE(Eval("3 != 4").AsBool());
}

TEST(ExprEvalTest, LogicalShortCircuit) {
  EXPECT_TRUE(Eval("true || 1/0 > 0").AsBool());   // rhs never evaluated
  EXPECT_FALSE(Eval("false && 1/0 > 0").AsBool());
  EXPECT_TRUE(Eval("!false").AsBool());
}

TEST(ExprEvalTest, DivisionByZeroIsError) {
  ExprPtr e = ParseExpr("1 / 0");
  MapContext ctx;
  Result<Value> v = EvaluateExpr(*e, ctx);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kRuntimeError);
}

TEST(ExprEvalTest, StringEqualityCaseInsensitive) {
  MapContext ctx;
  ctx.Set("p", Value("CMD.EXE"));
  EXPECT_TRUE(Eval("p == \"cmd.exe\"", ctx).AsBool());
}

TEST(ExprEvalTest, StringEqualityDoesNotAllocate) {
  // `==`/`!=` on strings compare under the shared ASCII fold in place. The
  // operands themselves are copied out of the context (long strings, so
  // each copy allocates); the comparison must add nothing on top, so an
  // `==` costs exactly the allocations of an allocation-free `<` over the
  // same operands.
  MapContext ctx;
  ctx.Set("a", Value("C:\\Windows\\System32\\CMD.EXE"));
  ctx.Set("b", Value("c:\\windows\\system32\\cmd.exe"));
  ExprPtr eq = ParseExpr("a == b");
  ExprPtr ne = ParseExpr("a != b");
  ExprPtr lt = ParseExpr("a < b");
  ASSERT_TRUE(eq != nullptr && ne != nullptr && lt != nullptr);

  auto allocs = [&ctx](const Expr& e, bool expected) {
    const size_t before = testing::HeapAllocs();
    for (int i = 0; i < 100; ++i) {
      Result<Value> v = EvaluateExpr(e, ctx);
      EXPECT_TRUE(v.ok() && v->AsBool() == expected);
    }
    return testing::HeapAllocs() - before;
  };
  const size_t operand_copies = allocs(*lt, true);  // 'C' < 'c'
  EXPECT_EQ(allocs(*eq, true), operand_copies);
  EXPECT_EQ(allocs(*ne, false), operand_copies);
}

TEST(ExprEvalTest, StringEqualityLikeUpgrade) {
  MapContext ctx;
  ctx.Set("p", Value("C:\\Windows\\cmd.exe"));
  EXPECT_TRUE(Eval("p == \"%cmd.exe\"", ctx).AsBool());
  EXPECT_FALSE(Eval("p != \"%cmd.exe\"", ctx).AsBool());
  EXPECT_FALSE(Eval("p == \"%powershell.exe\"", ctx).AsBool());
}

TEST(ExprEvalTest, NullPropagationInArithmetic) {
  MapContext ctx;  // unknown refs resolve to null
  EXPECT_TRUE(Eval("missing + 1", ctx).is_null());
  EXPECT_TRUE(Eval("missing * 2", ctx).is_null());
}

TEST(ExprEvalTest, NullComparisonsAreFalse) {
  MapContext ctx;
  EXPECT_FALSE(Eval("missing > 0", ctx).AsBool());
  EXPECT_FALSE(Eval("missing == 0", ctx).AsBool());
  EXPECT_FALSE(Eval("missing != 0", ctx).AsBool());
}

TEST(ExprEvalTest, Query2AlertShapeWithMissingHistory) {
  // (ss0 > (ss0+ss1+ss2)/3) && ss0 > 10000, with ss1/ss2 null: the SMA is
  // null, the comparison false, no alert — no runtime error.
  MapContext ctx;
  ctx.Set("ss0", Value(50000.0));
  EXPECT_FALSE(
      Eval("(ss0 > (ss0 + ss1 + ss2) / 3) && (ss0 > 10000)", ctx).AsBool());
  // With full history the spike fires.
  ctx.Set("ss1", Value(1000.0));
  ctx.Set("ss2", Value(1200.0));
  EXPECT_TRUE(
      Eval("(ss0 > (ss0 + ss1 + ss2) / 3) && (ss0 > 10000)", ctx).AsBool());
}

TEST(ExprEvalTest, SetOperators) {
  MapContext ctx;
  ctx.Set("s1", Value(StringSet{"a", "b"}));
  ctx.Set("s2", Value(StringSet{"b", "c"}));
  EXPECT_EQ(Eval("s1 union s2", ctx).AsSet(), (StringSet{"a", "b", "c"}));
  EXPECT_EQ(Eval("s1 diff s2", ctx).AsSet(), (StringSet{"a"}));
  EXPECT_EQ(Eval("s1 intersect s2", ctx).AsSet(), (StringSet{"b"}));
  EXPECT_EQ(Eval("|s1 union s2|", ctx).AsInt(), 3);
}

TEST(ExprEvalTest, Query3AlertShape) {
  MapContext ctx;
  ctx.Set("observed", Value(StringSet{"php.exe", "sbblv.exe"}));
  ctx.Set("inv", Value(StringSet{"php.exe", "logger.exe"}));
  EXPECT_TRUE(Eval("|observed diff inv| > 0", ctx).AsBool());
  ctx.Set("observed", Value(StringSet{"php.exe"}));
  EXPECT_FALSE(Eval("|observed diff inv| > 0", ctx).AsBool());
}

TEST(ExprEvalTest, NullSetActsAsEmpty) {
  MapContext ctx;
  ctx.Set("s", Value(StringSet{"x"}));
  EXPECT_EQ(Eval("s union nothing", ctx).AsSet(), (StringSet{"x"}));
  EXPECT_EQ(Eval("|nothing|", ctx).AsInt(), 0);
}

TEST(ExprEvalTest, InOperator) {
  MapContext ctx;
  ctx.Set("name", Value("osql.exe"));
  ctx.Set("bad", Value(StringSet{"osql.exe", "gsecdump.exe"}));
  EXPECT_TRUE(Eval("name in bad", ctx).AsBool());
  ctx.Set("name", Value("notepad.exe"));
  EXPECT_FALSE(Eval("name in bad", ctx).AsBool());
}

TEST(ExprEvalTest, MathFunctions) {
  EXPECT_DOUBLE_EQ(Eval("abs(-4)").AsFloat(), 4.0);
  EXPECT_DOUBLE_EQ(Eval("sqrt(16)").AsFloat(), 4.0);
  EXPECT_DOUBLE_EQ(Eval("pow(2, 10)").AsFloat(), 1024.0);
  EXPECT_DOUBLE_EQ(Eval("max2(3, 7)").AsFloat(), 7.0);
  EXPECT_DOUBLE_EQ(Eval("min2(3, 7)").AsFloat(), 3.0);
}

TEST(ExprEvalTest, MathFunctionsWithNullArgGiveNull) {
  MapContext ctx;
  EXPECT_TRUE(Eval("abs(missing)", ctx).is_null());
  EXPECT_TRUE(Eval("pow(missing, 2)", ctx).is_null());
}

TEST(ExprEvalTest, SqrtOfNegativeIsError) {
  ExprPtr e = ParseExpr("sqrt(0 - 1)");
  MapContext ctx;
  EXPECT_FALSE(EvaluateExpr(*e, ctx).ok());
}

TEST(ExprEvalTest, EvaluateBoolTruthiness) {
  MapContext ctx;
  ctx.Set("n", Value(int64_t{3}));
  ExprPtr e = ParseExpr("n");
  EXPECT_TRUE(EvaluateBool(*e, ctx).value());
  ctx.Set("n", Value(int64_t{0}));
  EXPECT_FALSE(EvaluateBool(*e, ctx).value());
}

}  // namespace
}  // namespace saql
