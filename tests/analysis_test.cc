// Static-analysis (QueryAnalysis::Lint) tests: one pinned positive per
// diagnostic code, the corpus-stays-clean gate, the engine/session
// rejection paths, and a no-false-positive property harness over
// generated satisfiable queries.

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "engine/engine.h"
#include "parser/analyzer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::CompileQuery;
using testing::ReadQueryFile;

// Every checked-in paper/APT query (the saql_lint CI gate's file set).
const char* kCorpusFiles[] = {
    "query1_rule.saql",          "query2_timeseries.saql",
    "query3_invariant.saql",     "query4_outlier.saql",
    "apt/a6_invariant_excel.saql", "apt/a7_timeseries_network.saql",
    "apt/a8_outlier_dbscan.saql",  "apt/r1_initial_compromise.saql",
    "apt/r2_malware_infection.saql", "apt/r3_privilege_escalation.saql",
    "apt/r4_penetration.saql",
};

std::vector<Diagnostic> Lint(const std::string& text) {
  auto q = CompileQuery(text, "lint_target");
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

// ---------------------------------------------------------------------------
// Pinned positives: one test per diagnostic code, asserting the stable
// code, its contracted severity, and a usable source span.
// ---------------------------------------------------------------------------

TEST(AnalysisLintTest, SA001StringContradiction) {
  auto diags = Lint(
      "proc p[exe_name = \"a.exe\", exe_name = \"b.exe\"] write ip i as e "
      "return p");
  const Diagnostic* d = Find(diags, "SA001");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(d->span.IsZero());
  EXPECT_NE(d->message.find("unsatisfiable"), std::string::npos);
}

TEST(AnalysisLintTest, SA001LikePatternRejectsRequiredValue) {
  auto diags = Lint(
      "proc p[exe_name = \"cmd.exe\", exe_name = \"%osql.exe\"] "
      "write ip i as e return p");
  const Diagnostic* d = Find(diags, "SA001");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(AnalysisLintTest, SA001EmptyNumericRange) {
  auto diags =
      Lint("proc p[pid > 100, pid <= 50] write ip i as e return p");
  const Diagnostic* d = Find(diags, "SA001");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("empty numeric range"), std::string::npos);
}

TEST(AnalysisLintTest, SA001EqExcludedByNe) {
  auto diags =
      Lint("proc p[pid = 42, pid != 42] write ip i as e return p");
  ASSERT_NE(Find(diags, "SA001"), nullptr) << Render(diags);
}

TEST(AnalysisLintTest, SA001GlobalConjunction) {
  auto diags = Lint(
      "agentid = \"host-a\"\n"
      "agentid = \"host-b\"\n"
      "proc p write ip i as e return p");
  const Diagnostic* d = Find(diags, "SA001");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("global"), std::string::npos);
}

TEST(AnalysisLintTest, SA001CaseInsensitiveEqualValuesSatisfiable) {
  // The engine's LIKE matching is case-insensitive: these two constraints
  // agree, so no diagnostic may fire.
  auto diags = Lint(
      "proc p[exe_name = \"CMD.exe\", exe_name = \"cmd.EXE\"] "
      "write ip i as e return p");
  EXPECT_EQ(Find(diags, "SA001"), nullptr) << Render(diags);
}

TEST(AnalysisLintTest, SA002GlobalConstraintRefutesPattern) {
  auto diags = Lint(
      "subject_exe_name = \"cmd.exe\"\n"
      "proc p[\"%osql.exe\"] write file f as e return p");
  const Diagnostic* d = Find(diags, "SA002");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("can never match"), std::string::npos);
}

TEST(AnalysisLintTest, SA002GlobalReadsAttributeObjectTypeLacks) {
  // `object_path` is always-false against a network object, so the
  // pattern is dead.
  auto diags = Lint(
      "object_path = \"%backup1.dmp\"\n"
      "proc p write ip i as e return p");
  const Diagnostic* d = Find(diags, "SA002");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("do not carry"), std::string::npos);
}

TEST(AnalysisLintTest, SA002GlobalConsistentWithPatternIsClean) {
  auto diags = Lint(
      "subject_exe_name = \"cmd.exe\"\n"
      "proc p[\"%cmd.exe\"] write file f as e return p");
  EXPECT_EQ(Find(diags, "SA002"), nullptr) << Render(diags);
}

TEST(AnalysisLintTest, SA003ImplausibleOpObjectPair) {
  // No collector starts a *file*: the op alternation misses the file
  // object's schema envelope entirely.
  auto diags = Lint("proc p start file f as e return p");
  const Diagnostic* d = Find(diags, "SA003");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("dead pattern"), std::string::npos);
}

TEST(AnalysisLintTest, SA003AlternationWithOnePlausibleOpIsClean) {
  // `start || write` against a file: write is plausible, so the pattern
  // can still receive events.
  auto diags = Lint("proc p start || write file f as e return p");
  EXPECT_EQ(Find(diags, "SA003"), nullptr) << Render(diags);
}

TEST(AnalysisLintTest, SA010SubSecondWindow) {
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "#time(500 ms)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert ss[0].a > 10\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA010");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("granularity"), std::string::npos);
}

TEST(AnalysisLintTest, SA010GappedSlide) {
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "#time(10 s, 30 s)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert ss[0].a > 10\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA010");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_NE(d->message.find("gapped window"), std::string::npos);
}

TEST(AnalysisLintTest, SA011ConstantAggregate) {
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "#time(10 min)\n"
      "state ss { a := avg(100) } group by p\n"
      "alert ss[0].a > 10\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA011");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(AnalysisLintTest, SA012UngroupedInvariant) {
  auto diags = Lint(
      "proc p1[\"%apache.exe\"] start proc p2 as evt\n"
      "#time(10 s)\n"
      "state ss { set_proc := set(p2.exe_name) }\n"
      "invariant[10][offline] {\n"
      "  a := empty_set\n"
      "  a = a union ss.set_proc\n"
      "}\n"
      "alert |ss.set_proc diff a| > 0\n"
      "return ss.set_proc");
  const Diagnostic* d = Find(diags, "SA012");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("empty group key"), std::string::npos);
}

TEST(AnalysisLintTest, SA020MatchEverythingPattern) {
  auto diags = Lint("proc p[\"%\"] write ip i as e return p");
  const Diagnostic* d = Find(diags, "SA020");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kHint);
  EXPECT_NE(d->message.find("matches every value"), std::string::npos);
}

TEST(AnalysisLintTest, SA020DuplicateConstraint) {
  auto diags = Lint(
      "proc p[exe_name = \"a.exe\", exe_name = \"a.exe\"] "
      "write ip i as e return p");
  const Diagnostic* d = Find(diags, "SA020");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_NE(d->message.find("duplicate"), std::string::npos);
  // Same value twice is redundant, not contradictory.
  EXPECT_EQ(Find(diags, "SA001"), nullptr) << Render(diags);
}

TEST(AnalysisLintTest, SA021ConstantAlertCondition) {
  auto diags = Lint(
      "proc p write ip i as evt\n"
      "#time(10 min)\n"
      "state ss { a := avg(evt.amount) } group by p\n"
      "alert 2 > 1\n"
      "return p");
  const Diagnostic* d = Find(diags, "SA021");
  ASSERT_NE(d, nullptr) << Render(diags);
  EXPECT_EQ(d->severity, Severity::kHint);
}

// ---------------------------------------------------------------------------
// Corpus gates: every checked-in query stays clean.
// ---------------------------------------------------------------------------

TEST(AnalysisCorpusTest, AllCorpusQueriesLintWithoutErrorsOrWarnings) {
  for (const char* file : kCorpusFiles) {
    auto q = CompileQuery(ReadQueryFile(file), file);
    ASSERT_NE(q, nullptr) << file;
    auto diags = QueryAnalysis::Lint(*q);
    EXPECT_EQ(CountSeverity(diags, Severity::kError), 0u)
        << file << "\n" << Render(diags);
    EXPECT_EQ(CountSeverity(diags, Severity::kWarning), 0u)
        << file << "\n" << Render(diags);
  }
}

// The fleet-level companion gate: the corpus must also be free of
// cross-query redundancy — no two checked-in queries may be duplicates
// or subsume one another (the CI `saql_lint --fleet` gate pins the same
// invariant on the command line).
TEST(AnalysisCorpusTest, CorpusIsCleanUnderFleetAnalysis) {
  std::vector<FleetAnalysis::Member> members;
  for (const char* file : kCorpusFiles) {
    Result<AnalyzedQueryPtr> aq = CompileSaql(ReadQueryFile(file));
    ASSERT_TRUE(aq.ok()) << file << "\n" << aq.status();
    members.push_back({file, *aq});
  }
  FleetReport report = FleetAnalysis::Analyze(members);
  EXPECT_TRUE(report.relations.empty()) << report.ToString();
  EXPECT_FALSE(report.HasFindings()) << report.ToString();
  // The routing envelope is still populated (overlap is informational).
  EXPECT_FALSE(report.cells.empty());
}

// The intentionally duplicated fixture pair (kept outside the linted
// corpus) exercises the SA050 path over checked-in files end to end.
TEST(AnalysisCorpusTest, FixturePairDrawsSA050) {
  Result<AnalyzedQueryPtr> a =
      CompileSaql(ReadQueryFile("apt/fixtures/dup_dropper_write_a.saql"));
  Result<AnalyzedQueryPtr> b =
      CompileSaql(ReadQueryFile("apt/fixtures/dup_dropper_write_b.saql"));
  ASSERT_TRUE(a.ok() && b.ok());
  FleetReport report = FleetAnalysis::Analyze({{"a", *a}, {"b", *b}});
  ASSERT_EQ(report.relations.size(), 1u) << report.ToString();
  EXPECT_EQ(report.relations[0].kind, FleetRelation::Kind::kDuplicate);
  EXPECT_NE(Find(report.findings[1], "SA050"), nullptr);
}

// ---------------------------------------------------------------------------
// Engine/session enforcement: errors reject (state untouched), non-error
// findings attach to the handle.
// ---------------------------------------------------------------------------

TEST(AnalysisEnforcementTest, EngineAddQueryRejectsUnsatisfiableQuery) {
  SaqlEngine engine;
  std::vector<Diagnostic> diags;
  Status st = engine.AddQuery(
      "proc p[pid > 100, pid <= 50] write ip i as e return p", "bad",
      &diags);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("SA001"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(HasErrors(diags));
  // The engine is untouched: the same name registers a fixed query.
  EXPECT_EQ(engine.num_queries(), 0u);
  EXPECT_TRUE(engine
                  .AddQuery("proc p[pid > 100] write ip i as e return p",
                            "bad")
                  .ok());
  EXPECT_EQ(engine.num_queries(), 1u);
}

TEST(AnalysisEnforcementTest, EngineAddQueryPassesWarningsThrough) {
  SaqlEngine engine;
  std::vector<Diagnostic> diags;
  Status st = engine.AddQuery("proc p start file f as e return p", "warn",
                              &diags);
  EXPECT_TRUE(st.ok()) << st.ToString();  // warnings never reject
  EXPECT_NE(Find(diags, "SA003"), nullptr) << Render(diags);
  EXPECT_FALSE(HasErrors(diags));
}

TEST(AnalysisEnforcementTest, SessionAddQueryRejectionLeavesSessionIntact) {
  SaqlEngine engine;
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok());
  std::vector<Diagnostic> diags;
  auto handle = (*session)->AddQuery(
      "agentid = \"a\"\nagentid = \"b\"\nproc p write ip i as e return p",
      "dead", &diags);
  EXPECT_FALSE(handle.ok());
  EXPECT_TRUE(HasErrors(diags));
  EXPECT_EQ((*session)->num_active_queries(), 0u);
  EXPECT_EQ((*session)->handle("dead"), nullptr);
  // The session still accepts queries and events.
  auto good = (*session)->AddQuery(
      "proc p[\"%cmd.exe\"] write file f as e return p", "good");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ((*session)->num_active_queries(), 1u);
  Event e = testing::EventBuilder()
                .Id(1)
                .At(kSecond)
                .OnHost("h1")
                .Subject("cmd.exe")
                .Op(EventOp::kWrite)
                .FileObject("/tmp/x")
                .Build();
  EXPECT_TRUE((*session)->Push(&e, 1).ok());
  EXPECT_TRUE((*session)->Close().ok());
}

TEST(AnalysisEnforcementTest, WarningsAttachToQueryHandle) {
  SaqlEngine engine;
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok());
  auto handle =
      (*session)->AddQuery("proc p start file f as e return p", "warn");
  ASSERT_TRUE(handle.ok()) << handle.status();
  const std::vector<Diagnostic>& attached = (*handle)->diagnostics();
  EXPECT_NE(Find(attached, "SA003"), nullptr) << Render(attached);
  EXPECT_FALSE(HasErrors(attached));
  EXPECT_TRUE((*session)->Close().ok());
}

// ---------------------------------------------------------------------------
// No-false-positive property: generated queries that are satisfiable by
// construction never draw an error-severity finding (nor the dead-pattern
// warning SA003).
// ---------------------------------------------------------------------------

TEST(AnalysisPropertyTest, SatisfiableQueriesNeverDrawErrors) {
  std::mt19937 rng(0xC0FFEE);
  auto pick = [&](const std::vector<std::string>& pool) {
    return pool[rng() % pool.size()];
  };
  const std::vector<std::string> exe_pool = {"%cmd.exe", "%osql.exe",
                                             "%sqlservr.exe", "a.exe", "%"};
  const std::vector<std::string> path_pool = {"%backup1.dmp", "%.xls",
                                              "/tmp/%", "%"};
  const std::vector<std::string> ip_pool = {"%.129", "10.0.0.1", "%"};

  for (int iter = 0; iter < 300; ++iter) {
    std::ostringstream q;
    // Optional global constraint on a field no pattern constrains: cannot
    // contradict anything.
    if (rng() % 2 == 0) q << "agentid = \"host-" << rng() % 4 << "\"\n";

    // Subject: at most one exe_name value plus a non-empty pid interval.
    q << "proc p[exe_name = \"" << pick(exe_pool) << "\"";
    if (rng() % 2 == 0) {
      uint32_t lo = rng() % 1000;
      q << ", pid >= " << lo << ", pid <= " << lo + 1 + rng() % 1000;
    }
    q << "] ";

    // Object type with an op from its schema envelope.
    switch (rng() % 3) {
      case 0:
        q << (rng() % 2 == 0 ? "start" : "execute") << " proc q[\""
          << pick(exe_pool) << "\"]";
        break;
      case 1:
        q << (rng() % 2 == 0 ? "write" : "read") << " file f[\""
          << pick(path_pool) << "\"]";
        break;
      default:
        q << (rng() % 2 == 0 ? "write" : "connect") << " ip i[dstip = \""
          << pick(ip_pool) << "\"]";
        break;
    }
    q << " as e return p";

    auto compiled = CompileQuery(q.str(), "gen");
    ASSERT_NE(compiled, nullptr) << q.str();
    auto diags = QueryAnalysis::Lint(*compiled);
    EXPECT_EQ(CountSeverity(diags, Severity::kError), 0u)
        << q.str() << "\n" << Render(diags);
    EXPECT_EQ(Find(diags, "SA003"), nullptr)
        << q.str() << "\n" << Render(diags);
    // The dataflow pass must stay silent too: every generated constraint
    // is type-correct against the schema, every variable is constrained
    // or returned, and there is no state block or constant arithmetic.
    for (const char* code : {"SA040", "SA041", "SA042", "SA043"}) {
      EXPECT_EQ(Find(diags, code), nullptr)
          << code << "\n" << q.str() << "\n" << Render(diags);
    }
  }
}

// The seeded-corpus variant of the property: a query that demonstrably
// alerts on real events must never have been rejected. query1 fires on
// the APT replay in engine_test; here it is enough that the lint verdict
// for all corpus queries is error-free (checked above) *and* that a
// minimal known-alerting query stays clean end to end.
TEST(AnalysisPropertyTest, AlertingQueryIsErrorFree) {
  const std::string text =
      "proc p[\"%cmd.exe\"] write file f as e return distinct p, f";
  SaqlEngine engine;
  std::vector<Diagnostic> diags;
  ASSERT_TRUE(engine.AddQuery(text, "alerting", &diags).ok());
  EXPECT_FALSE(HasErrors(diags));
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok());
  Event e = testing::EventBuilder()
                .Id(1)
                .At(kSecond)
                .OnHost("h1")
                .Subject("cmd.exe")
                .Op(EventOp::kWrite)
                .FileObject("/tmp/out.dmp")
                .Build();
  ASSERT_TRUE((*session)->Push(&e, 1).ok());
  ASSERT_TRUE((*session)->AdvanceWatermark(2 * kSecond).ok());
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_GE(engine.alerts().size(), 1u);
}

}  // namespace
}  // namespace saql
