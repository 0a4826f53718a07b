#include "engine/eval_contexts.h"

#include <gtest/gtest.h>

#include "parser/analyzer.h"
#include "parser/parser.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

AnalyzedQueryPtr StatefulQuery() {
  return CompileSaql(
             "proc p write ip i as e #time(1 min) "
             "state[3] ss { amt := sum(e.amount) } group by p "
             "cluster(points=all(ss.amt), distance=\"ed\", "
             "method=\"DBSCAN(10, 2)\") "
             "alert cluster.outlier return p, ss.amt")
      .value();
}

ExprPtr Ref(const std::string& base, std::optional<int> history,
            const std::string& field) {
  return Expr::MakeRef(base, history, field, SourceLoc{});
}

TEST(WindowEvalContextTest, StateHistoryResolution) {
  AnalyzedQueryPtr aq = StatefulQuery();
  std::deque<WindowState> history;
  for (int i = 0; i < 3; ++i) {
    WindowState ws;
    ws.fields.push_back(Value(static_cast<int64_t>((i + 1) * 100)));
    history.push_back(std::move(ws));  // front = newest
  }
  WindowEvalContext ctx(*aq, &history, nullptr, nullptr, nullptr);
  EXPECT_EQ(EvaluateExpr(*Ref("ss", 0, "amt"), ctx).value().AsInt(), 100);
  EXPECT_EQ(EvaluateExpr(*Ref("ss", 1, "amt"), ctx).value().AsInt(), 200);
  EXPECT_EQ(EvaluateExpr(*Ref("ss", 2, "amt"), ctx).value().AsInt(), 300);
  // No index behaves as ss[0].
  EXPECT_EQ(EvaluateExpr(*Ref("ss", std::nullopt, "amt"), ctx)
                .value().AsInt(),
            100);
}

TEST(WindowEvalContextTest, MissingHistoryIsNull) {
  AnalyzedQueryPtr aq = StatefulQuery();
  std::deque<WindowState> history;
  WindowState ws;
  ws.fields.push_back(Value(int64_t{5}));
  history.push_back(std::move(ws));
  WindowEvalContext ctx(*aq, &history, nullptr, nullptr, nullptr);
  EXPECT_TRUE(EvaluateExpr(*Ref("ss", 2, "amt"), ctx).value().is_null());
}

TEST(WindowEvalContextTest, ClusterOutcomeResolution) {
  AnalyzedQueryPtr aq = StatefulQuery();
  ClusterOutcome outcome;
  outcome.valid = true;
  outcome.outlier = true;
  outcome.cluster_id = 2;
  outcome.cluster_size = 7;
  WindowEvalContext ctx(*aq, nullptr, nullptr, nullptr, &outcome);
  EXPECT_TRUE(EvaluateExpr(*Ref("cluster", std::nullopt, "outlier"), ctx)
                  .value().AsBool());
  EXPECT_EQ(EvaluateExpr(*Ref("cluster", std::nullopt, "cluster_id"), ctx)
                .value().AsInt(),
            2);
  EXPECT_EQ(EvaluateExpr(*Ref("cluster", std::nullopt, "cluster_size"), ctx)
                .value().AsInt(),
            7);
}

TEST(WindowEvalContextTest, InvalidClusterOutcomeIsNull) {
  AnalyzedQueryPtr aq = StatefulQuery();
  ClusterOutcome outcome;  // valid = false (excluded group)
  WindowEvalContext ctx(*aq, nullptr, nullptr, nullptr, &outcome);
  EXPECT_TRUE(EvaluateExpr(*Ref("cluster", std::nullopt, "outlier"), ctx)
                  .value().is_null());
}

TEST(WindowEvalContextTest, GroupKeyResolution) {
  AnalyzedQueryPtr aq = StatefulQuery();
  std::vector<Value> keys{Value("sqlservr.exe")};
  WindowEvalContext ctx(*aq, nullptr, &keys, nullptr, nullptr);
  // `p` resolves to the group key's value; explicit field must match.
  EXPECT_EQ(EvaluateExpr(*Ref("p", std::nullopt, ""), ctx)
                .value().AsString(),
            "sqlservr.exe");
  EXPECT_EQ(EvaluateExpr(*Ref("p", std::nullopt, "exe_name"), ctx)
                .value().AsString(),
            "sqlservr.exe");
  // A different field of the same base is not the group key.
  EXPECT_TRUE(EvaluateExpr(*Ref("p", std::nullopt, "pid"), ctx)
                  .value().is_null());
}

TEST(WindowEvalContextTest, InvariantVarResolution) {
  AnalyzedQueryPtr aq =
      CompileSaql(
          "proc p start proc c as e #time(10 s) "
          "state ss { s := set(c.exe_name) } group by p "
          "invariant[2] { a := empty_set a = a union ss.s } "
          "alert |ss.s diff a| > 0 return p")
          .value();
  std::vector<Value> env{Value(StringSet{"php.exe"})};
  WindowEvalContext ctx(*aq, nullptr, nullptr, &env, nullptr);
  EXPECT_EQ(EvaluateExpr(*Ref("a", std::nullopt, ""), ctx).value().AsSet(),
            (StringSet{"php.exe"}));
}

TEST(MatchEvalContextTest, EntityAndAliasResolution) {
  AnalyzedQueryPtr aq =
      CompileSaql(
          "proc p write file f as e alert e.amount > 0 return p, f, "
          "e.agentid")
          .value();
  const Event event = EventBuilder()
                          .At(5)
                          .OnHost("db-1")
                          .Subject("osql.exe", 42)
                          .Op(EventOp::kWrite)
                          .FileObject("/dump.bin")
                          .Amount(100)
                          .Build();
  PatternMatch match;
  match.events.push_back(&event);
  MatchEvalContext ctx(*aq, match);
  EXPECT_EQ(EvaluateExpr(*Ref("p", std::nullopt, ""), ctx)
                .value().AsString(),
            "osql.exe");  // default field
  EXPECT_EQ(EvaluateExpr(*Ref("p", std::nullopt, "pid"), ctx)
                .value().AsInt(),
            42);
  EXPECT_EQ(EvaluateExpr(*Ref("f", std::nullopt, ""), ctx)
                .value().AsString(),
            "/dump.bin");
  EXPECT_EQ(EvaluateExpr(*Ref("e", std::nullopt, "agentid"), ctx)
                .value().AsString(),
            "db-1");
  EXPECT_EQ(EvaluateExpr(*Ref("e", std::nullopt, "amount"), ctx)
                .value().AsInt(),
            100);
  // Unknown names resolve to null rather than erroring the stream.
  EXPECT_TRUE(EvaluateExpr(*Ref("zz", std::nullopt, ""), ctx)
                  .value().is_null());
}

TEST(AggFinishContextTest, ResolvesBySiteIdentity) {
  ExprPtr call = Expr::MakeCall("sum", {}, SourceLoc{});
  std::vector<const Expr*> sites{call.get()};
  std::vector<Value> values{Value(int64_t{42})};
  AggFinishContext ctx(&sites, &values);
  EXPECT_EQ(EvaluateExpr(*call, ctx).value().AsInt(), 42);
  // A different call node (even if identical text) is a missing site.
  ExprPtr other = Expr::MakeCall("sum", {}, SourceLoc{});
  Result<Value> r = EvaluateExpr(*other, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(CollectAggregateSitesTest, FindsAllSitesInOrder) {
  Result<Query> q = ParseSaql(
      "proc p write ip i as e #time(1 min) "
      "state ss { x := avg(e.amount) / max(e.amount) + 1 } group by p "
      "return ss.x");
  ASSERT_TRUE(q.ok());
  std::vector<const Expr*> sites;
  CollectAggregateSites(*q->state->fields[0].expr, &sites);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0]->callee, "avg");
  EXPECT_EQ(sites[1]->callee, "max");
}

}  // namespace
}  // namespace saql
