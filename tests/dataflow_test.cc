// Dataflow-pass tests (SA040 cross-type, SA041 unused variables, SA042
// unread state fields, SA043 constant folding), static-type inference
// checks, and the golden-span suite: every diagnostic code SA001–SA051
// pins the exact SourceSpan it anchors to, so span regressions (an
// analyzer refactor moving a diagnostic off its source text) fail loudly.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataflow.h"
#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "parser/analyzer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::CompileQuery;

std::vector<Diagnostic> Lint(const std::string& text) {
  auto q = CompileQuery(text, "dataflow_target");
  if (q == nullptr) return {};
  return QueryAnalysis::Lint(*q);
}

const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::string Render(const std::vector<Diagnostic>& diags) {
  return RenderDiagnostics(diags, "  ");
}

void ExpectSpan(const Diagnostic& d, int bl, int bc, int el, int ec) {
  EXPECT_EQ(d.span.begin.line, bl) << d.ToString();
  EXPECT_EQ(d.span.begin.col, bc) << d.ToString();
  EXPECT_EQ(d.span.end.line, el) << d.ToString();
  EXPECT_EQ(d.span.end.col, ec) << d.ToString();
}

// ---------------------------------------------------------------------------
// SA040: cross-type comparisons and constraints.
// ---------------------------------------------------------------------------

TEST(DataflowTest, SA040OrderedComparisonStringVsNumeric) {
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "alert i.dstip > 5\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA040");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("cross-type comparison"), std::string::npos);
  EXPECT_NE(d->message.find("string vs numeric"), std::string::npos);
}

TEST(DataflowTest, SA040EqualityAcrossTypes) {
  // `==` across kinds is always-false under Value::Equals (only int/float
  // coerce), so the alert can never fire.
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "alert i.dstip == 5\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA040");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(DataflowTest, SA040CrossTypeConstraint) {
  auto diags = Lint("proc p[pid = \"abc\"] write ip as e return p");
  const Diagnostic* d = Find(diags, "SA040");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("cross-type constraint"), std::string::npos);
}

TEST(DataflowTest, SA040NeAcrossTypesIsNotFlagged) {
  // `!=` across kinds is always *true* (Equals → false, negated) — the
  // query can still alert, so the conservative contract forbids an error.
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "alert i.dstip != 5\n"
      "return p");
  EXPECT_EQ(Find(diags, "SA040"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA040SameTypeComparisonsClean) {
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "alert evt.amount > 5 && i.dstip == \"10.0.0.1\"\n"
      "return p");
  EXPECT_EQ(Find(diags, "SA040"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA040StatefulAggregateComparisonClean) {
  auto diags = Lint(
      "proc p write ip as evt\n"
      "#time(10 min)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert ss[0].a > 10\n"
      "return p");
  EXPECT_EQ(Find(diags, "SA040"), nullptr) << Render(diags);
}

// ---------------------------------------------------------------------------
// SA041: unused pattern variables.
// ---------------------------------------------------------------------------

TEST(DataflowTest, SA041UnusedObjectVariable) {
  auto diags = Lint("proc p write ip i as e\nreturn p");
  const Diagnostic* d = Find(diags, "SA041");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("'i'"), std::string::npos);
}

TEST(DataflowTest, SA041AnonymousEntityIsExempt) {
  auto diags = Lint("proc p write ip as e\nreturn p");
  EXPECT_EQ(Find(diags, "SA041"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA041UnderscorePrefixIsExempt) {
  auto diags = Lint("proc p write ip _scratch as e\nreturn p");
  EXPECT_EQ(Find(diags, "SA041"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA041ConstrainedVariableIsExempt) {
  // A constrained variable filters events even when never referenced.
  auto diags =
      Lint("proc p write ip i[dstip = \"10.0.0.1\"] as e\nreturn p");
  EXPECT_EQ(Find(diags, "SA041"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA041SharedJoinVariableIsExempt) {
  // f joins the two patterns (same entity), which is a use.
  auto diags = Lint(
      "proc p1[\"%a.exe\"] write file f as e1\n"
      "proc p2[\"%b.exe\"] read file f as e2\n"
      "return p1, p2");
  EXPECT_EQ(Find(diags, "SA041"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA041ReferencedVariableIsExempt) {
  auto diags = Lint("proc p write ip i as e\nreturn p, i.dstip");
  EXPECT_EQ(Find(diags, "SA041"), nullptr) << Render(diags);
}

// ---------------------------------------------------------------------------
// SA042: never-read state fields.
// ---------------------------------------------------------------------------

TEST(DataflowTest, SA042UnreadStateField) {
  auto diags = Lint(
      "proc p write ip as evt\n"
      "#time(10 min)\n"
      "state ss {\n"
      "  used := avg(evt.amount)\n"
      "  unused := sum(evt.amount)\n"
      "} group by p\n"
      "alert ss[0].used > 10\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA042");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("'unused'"), std::string::npos);
}

TEST(DataflowTest, SA042FieldReadByReturnIsUsed) {
  auto diags = Lint(
      "proc p write ip as evt\n"
      "#time(10 min)\n"
      "state ss {\n"
      "  a := avg(evt.amount)\n"
      "  b := sum(evt.amount)\n"
      "} group by p\n"
      "alert ss[0].a > 10\n"
      "return p, ss[0].b");
  EXPECT_EQ(Find(diags, "SA042"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA042FieldReadByInvariantIsUsed) {
  auto diags = Lint(
      "proc p1[\"%apache.exe\"] start proc p2 as evt\n"
      "#time(10 s)\n"
      "state ss { set_proc := set(p2.exe_name) } group by p1\n"
      "invariant[10][offline] {\n"
      "  a := empty_set\n"
      "  a = a union ss.set_proc\n"
      "}\n"
      "alert |ss.set_proc diff a| > 0\n"
      "return ss.set_proc");
  EXPECT_EQ(Find(diags, "SA042"), nullptr) << Render(diags);
}

// ---------------------------------------------------------------------------
// SA043: constant-foldable subexpressions.
// ---------------------------------------------------------------------------

TEST(DataflowTest, SA043ConstantSubexpression) {
  auto diags = Lint(
      "proc p write ip as evt\n"
      "#time(10 min)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert ss[0].a > 2 * 1000\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA043");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kHint);
  EXPECT_NE(d->message.find("2 * 1000"), std::string::npos);
}

TEST(DataflowTest, SA043WhollyConstantAlertIsSA021sDomain) {
  // A fully constant alert already draws SA021; SA043 must not pile on.
  auto diags = Lint(
      "proc p write ip as evt\n"
      "#time(10 min)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert 2 > 1\n"
      "return p");
  EXPECT_NE(Find(diags, "SA021"), nullptr) << Render(diags);
  EXPECT_EQ(Find(diags, "SA043"), nullptr) << Render(diags);
}

TEST(DataflowTest, SA043NoConstantsClean) {
  auto diags = Lint(
      "proc p write ip as evt\n"
      "#time(10 min)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert ss[0].a > 10\n"
      "return p");
  EXPECT_EQ(Find(diags, "SA043"), nullptr) << Render(diags);
}

// ---------------------------------------------------------------------------
// Static-type inference.
// ---------------------------------------------------------------------------

TEST(DataflowTest, InferExprTypeOverSchema) {
  auto aq = CompileSaql(
      "proc p write ip i as evt\n"
      "alert evt.amount > 5 && i.dstip == \"10.0.0.1\"\n"
      "return p");
  ASSERT_TRUE(aq.ok());
  const Expr& alert = *(*aq)->query->alert;  // (amount>5) && (dstip=="...")
  EXPECT_EQ(InferExprType(**aq, alert), StaticType::kBool);
  const Expr& cmp_num = *alert.lhs;
  EXPECT_EQ(InferExprType(**aq, *cmp_num.lhs), StaticType::kNumeric);
  const Expr& cmp_str = *alert.rhs;
  EXPECT_EQ(InferExprType(**aq, *cmp_str.lhs), StaticType::kString);
  EXPECT_EQ(std::string(StaticTypeName(StaticType::kNumeric)), "numeric");
  EXPECT_EQ(std::string(StaticTypeName(StaticType::kString)), "string");
}

// ---------------------------------------------------------------------------
// Golden spans: every SA code pins the exact source range it anchors to.
// The inputs mirror the pinned-positive tests; the expected line/col
// values are the contract — moving a diagnostic off its source text is a
// breaking change to every IDE/CI consumer of the --json spans.
// ---------------------------------------------------------------------------

struct GoldenSpanCase {
  const char* code;
  const char* text;
  int begin_line, begin_col, end_line, end_col;
};

TEST(GoldenSpanTest, EveryPerQueryCodePinsItsSpan) {
  const GoldenSpanCase kCases[] = {
      // SA001 anchors the offending entity's constraint list.
      {"SA001",
       "proc p[exe_name = \"a.exe\", exe_name = \"b.exe\"] write ip as e\n"
       "return p",
       1, 8, 1, 46},
      // SA002 anchors the refuted entity pattern.
      {"SA002",
       "subject_exe_name = \"cmd.exe\"\n"
       "proc p[\"%osql.exe\"] write file f[\"%.dmp\"] as e\n"
       "return p",
       2, 8, 2, 19},
      // SA003 anchors the whole dead event pattern.
      {"SA003", "proc p start file f[\"%.tmp\"] as e\nreturn p", 1, 1, 1, 34},
      // SA010 anchors the window spec.
      {"SA010",
       "proc p write ip as evt\n"
       "#time(500 ms)\n"
       "state ss { a := avg(evt.amount) } group by p\n"
       "alert ss[0].a > 10\n"
       "return p",
       2, 1, 2, 14},
      // SA011 anchors the constant aggregate call.
      {"SA011",
       "proc p write ip as evt\n"
       "#time(10 min)\n"
       "state ss { a := avg(100) } group by p\n"
       "alert ss[0].a > 10\n"
       "return p",
       3, 17, 3, 25},
      // SA012 anchors the invariant block header (point span).
      {"SA012",
       "proc p1[\"%apache.exe\"] start proc p2 as evt\n"
       "#time(10 s)\n"
       "state ss { set_proc := set(p2.exe_name) }\n"
       "invariant[10][offline] {\n"
       "  a := empty_set\n"
       "  a = a union ss.set_proc\n"
       "}\n"
       "alert |ss.set_proc diff a| > 0\n"
       "return ss.set_proc",
       4, 1, 4, 1},
      // SA020 anchors the redundant constraint.
      {"SA020", "proc p[\"%\"] write ip as e\nreturn p", 1, 8, 1, 11},
      // SA021 anchors the constant alert expression.
      {"SA021",
       "proc p write ip as evt\n"
       "#time(10 min)\n"
       "state ss { a := avg(evt.amount) } group by p\n"
       "alert 2 > 1\n"
       "return p",
       4, 7, 4, 12},
      // SA040 (expression form) anchors the comparison node.
      {"SA040",
       "proc p write ip i as evt\n"
       "alert i.dstip > 5\n"
       "return p",
       2, 7, 2, 18},
      // SA041 anchors the unused entity pattern.
      {"SA041", "proc p write ip i as e\nreturn p", 1, 14, 1, 18},
      // SA042 anchors the state field definition.
      {"SA042",
       "proc p write ip as evt\n"
       "#time(10 min)\n"
       "state ss {\n"
       "  used := avg(evt.amount)\n"
       "  unused := sum(evt.amount)\n"
       "} group by p\n"
       "alert ss[0].used > 10\n"
       "return p",
       5, 3, 5, 28},
      // SA043 anchors the foldable subtree.
      {"SA043",
       "proc p write ip as evt\n"
       "#time(10 min)\n"
       "state ss { a := avg(evt.amount) } group by p\n"
       "alert ss[0].a > 2 * 1000\n"
       "return p",
       4, 17, 4, 25},
  };
  for (const GoldenSpanCase& c : kCases) {
    auto diags = Lint(c.text);
    const Diagnostic* d = Find(diags, c.code);
    ASSERT_NE(d, nullptr) << c.code << "\n" << c.text << "\n" << Render(diags);
    ExpectSpan(*d, c.begin_line, c.begin_col, c.end_line, c.end_col);
  }
}

TEST(GoldenSpanTest, SA040ConstraintFormPinsItsSpan) {
  auto diags = Lint("proc p[pid = \"abc\"] write ip as e return p");
  const Diagnostic* d = Find(diags, "SA040");
  ASSERT_NE(d, nullptr) << Render(diags);
  ExpectSpan(*d, 1, 8, 1, 19);
}

TEST(GoldenSpanTest, SA050PinsItsSpan) {
  auto a = CompileSaql(
      "proc pa[\"%evil.exe\"] write file fa[path = \"%drop.dll\"] as ea\n"
      "return pa, fa");
  auto b = CompileSaql(
      "proc pb[\"%EVIL.EXE\"] write file fb[name = \"%drop.dll\"] as eb\n"
      "return pb, fb");
  ASSERT_TRUE(a.ok() && b.ok());
  auto diags = FleetAnalysis::CheckQuery(FleetEntry("second", *b),
                                         {FleetEntry("first", *a)});
  const Diagnostic* d = Find(diags, "SA050");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  // Anchors the incoming query's first event pattern.
  ExpectSpan(*d, 1, 1, 1, 61);
}

TEST(GoldenSpanTest, SA051PinsItsSpan) {
  auto tight = CompileSaql(
      "proc p[\"%cmd.exe\"] write file f[path = \"/tmp/%\"] as e\n"
      "return p, f");
  auto wide = CompileSaql("proc p write file f as e\nreturn p, f");
  ASSERT_TRUE(tight.ok() && wide.ok());
  auto diags = FleetAnalysis::CheckQuery(FleetEntry("wide", *wide),
                                         {FleetEntry("tight", *tight)});
  const Diagnostic* d = Find(diags, "SA051");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  ExpectSpan(*d, 1, 1, 1, 25);
}

}  // namespace
}  // namespace saql
