// Fleet analyzer tests: pinned SA050/SA051 positives and negatives,
// routing-envelope cells, the cooldown gate on subsumption, and the
// differential soundness harness — the analyzer's cross-query claims are
// *executable*, so every claimed relation is checked against the engine:
// SA050 pairs must raise identical alert multisets and SA051 pairs must
// raise a subset, over randomized streams. A single
// counterexample means the canonicalizer is unsound, not merely noisy.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "engine/engine.h"
#include "parser/analyzer.h"
#include "stream/event_source.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

AnalyzedQueryPtr Compile(const std::string& text) {
  Result<AnalyzedQueryPtr> aq = CompileSaql(text);
  EXPECT_TRUE(aq.ok()) << text << "\n" << aq.status();
  return aq.ok() ? *aq : nullptr;
}

FleetReport Analyze2(const std::string& name_a, const std::string& text_a,
                     const std::string& name_b, const std::string& text_b) {
  AnalyzedQueryPtr a = Compile(text_a);
  AnalyzedQueryPtr b = Compile(text_b);
  if (a == nullptr || b == nullptr) return {};
  return FleetAnalysis::Analyze({{name_a, a}, {name_b, b}});
}

const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// SA050: exact duplicates up to renaming.
// ---------------------------------------------------------------------------

TEST(FleetAnalysisTest, SA050AcrossRenamingCaseAndFieldSpelling) {
  // Renamed variables, case-flipped LIKE patterns, and the polymorphic
  // `name` spelling for the file path: one canonical query.
  FleetReport r = Analyze2(
      "a",
      "proc browser[\"%java.exe\"] write file dropper[path = \"%mal.exe\"] "
      "as evt\nreturn browser, dropper",
      "b",
      "proc p1[\"%JAVA.EXE\"] write file f1[name = \"%MAL.EXE\"] as e1\n"
      "return p1, f1");
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kDuplicate);
  EXPECT_EQ(r.relations[0].a, 0u);
  EXPECT_EQ(r.relations[0].b, 1u);
  EXPECT_TRUE(r.findings[0].empty());  // the incumbent is not blamed
  const Diagnostic* d = Find(r.findings[1], "SA050");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("exact duplicate of fleet query 'a'"),
            std::string::npos);
  EXPECT_NE(r.ToString().find("SA050 'b' duplicates 'a'"), std::string::npos);
  EXPECT_TRUE(r.HasFindings());
}

TEST(FleetAnalysisTest, SA050ConstraintOrderInsensitive) {
  FleetReport r = Analyze2(
      "a",
      "proc p[exe_name = \"%sql%\", pid != 4] write ip i[dstip = \"%.129\"] "
      "as e\nreturn p, i",
      "b",
      "proc q[pid != 4, exe_name = \"%sql%\"] write ip j[dstip = \"%.129\"] "
      "as ev\nreturn q, j");
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kDuplicate);
}

TEST(FleetAnalysisTest, SA050StatefulDuplicateStillDetected) {
  // Canonical equality is sound for stateful queries too (identical
  // inputs, identical aggregates, identical alerts).
  const char* a =
      "proc p write ip as evt\n"
      "#time(1 min)\n"
      "state ss { amt := sum(evt.amount) } group by p\n"
      "alert ss[0].amt > 1000\n"
      "return p, ss[0].amt";
  const char* b =
      "proc proc_b write ip as e2\n"
      "#time(1 min)\n"
      "state win { amt := sum(e2.amount) } group by proc_b\n"
      "alert win[0].amt > 1000\n"
      "return proc_b, win[0].amt";
  FleetReport r = Analyze2("a", a, "b", b);
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kDuplicate);
}

TEST(FleetAnalysisTest, NoSA050WhenAnyPieceDiffers) {
  // Different constraint value.
  EXPECT_TRUE(Analyze2("a",
                       "proc p[\"%java.exe\"] write file f as e\nreturn p, f",
                       "b",
                       "proc p[\"%ruby.exe\"] write file f as e\nreturn p, f")
                  .relations.empty());
  // Different op.
  EXPECT_TRUE(Analyze2("a",
                       "proc p[\"%x%\"] write file f[\"%y%\"] as e\nreturn f",
                       "b",
                       "proc p[\"%x%\"] read file f[\"%y%\"] as e\nreturn f")
                  .relations.empty());
  // Different alert threshold (stateful: shape differs, and SA051 must
  // not fire either — tighter constraints change aggregate inputs).
  const char* tmpl =
      "proc p write ip as evt\n"
      "#time(1 min)\n"
      "state ss { amt := sum(evt.amount) } group by p\n"
      "alert ss[0].amt > %s\n"
      "return p, ss[0].amt";
  char qa[512], qb[512];
  std::snprintf(qa, sizeof(qa), tmpl, "1000000");
  std::snprintf(qb, sizeof(qb), tmpl, "2000000");
  EXPECT_TRUE(Analyze2("a", qa, "b", qb).relations.empty());
}

// ---------------------------------------------------------------------------
// SA051: one-way containment (stateless only).
// ---------------------------------------------------------------------------

TEST(FleetAnalysisTest, SA051ConstraintDroppingBothDirections) {
  const char* tight =
      "proc p[\"%cmd.exe\"] write file f[path = \"/tmp/%\"] as e\n"
      "return p, f";
  const char* wide = "proc q write file g[path = \"/tmp/%\"] as ev\n"
                     "return q, g";

  // Tight registered first: the incoming wide query "subsumes" it.
  FleetReport r = Analyze2("tight", tight, "wide", wide);
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kSubsumes);
  EXPECT_EQ(r.relations[0].a, 0u);  // tight is the subsumed side
  EXPECT_EQ(r.relations[0].b, 1u);
  const Diagnostic* d = Find(r.findings[1], "SA051");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("subsumes fleet query 'tight'"),
            std::string::npos);
  EXPECT_NE(r.ToString().find("'tight' is subsumed by 'wide'"),
            std::string::npos);

  // Wide registered first: the incoming tight query is "subsumed by" it.
  FleetReport r2 = Analyze2("wide", wide, "tight", tight);
  ASSERT_EQ(r2.relations.size(), 1u) << r2.ToString();
  EXPECT_EQ(r2.relations[0].a, 1u);
  EXPECT_EQ(r2.relations[0].b, 0u);
  const Diagnostic* d2 = Find(r2.findings[1], "SA051");
  ASSERT_NE(d2, nullptr);
  EXPECT_NE(d2->message.find("subsumed by fleet query 'wide'"),
            std::string::npos);
}

TEST(FleetAnalysisTest, SA051OpWidening) {
  FleetReport r = Analyze2(
      "tight", "proc p[\"%x%\"] write file f[\"%y%\"] as e\nreturn p, f",
      "wide",
      "proc q[\"%x%\"] read || write file g[\"%y%\"] as ev\nreturn q, g");
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kSubsumes);
  EXPECT_EQ(r.relations[0].a, 0u);
}

TEST(FleetAnalysisTest, SA051NumericGlobalIntervals) {
  FleetReport r = Analyze2(
      "tight",
      "amount > 1000\nproc p[\"%z.exe\"] write ip i as e\nreturn p, i",
      "wide", "amount > 10\nproc q[\"%z.exe\"] write ip j as ev\nreturn q, j");
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kSubsumes);
  EXPECT_EQ(r.relations[0].a, 0u);
}

TEST(FleetAnalysisTest, SA051NeverFiresForStatefulQueries) {
  // A tighter filter changes the aggregate's *inputs*: sum() over fewer
  // events can dip below a threshold the wide query would cross, and vice
  // versa — containment does not hold, so the analyzer must stay silent.
  const char* tight =
      "proc p[\"%sql%\"] write ip as evt\n"
      "#time(1 min)\n"
      "state ss { amt := sum(evt.amount) } group by p\n"
      "alert ss[0].amt > 1000\n"
      "return p, ss[0].amt";
  const char* wide =
      "proc p write ip as evt\n"
      "#time(1 min)\n"
      "state ss { amt := sum(evt.amount) } group by p\n"
      "alert ss[0].amt > 1000\n"
      "return p, ss[0].amt";
  EXPECT_TRUE(Analyze2("tight", tight, "wide", wide).relations.empty());
}

TEST(FleetAnalysisTest, SA051RespectsTheSubsumptionOption) {
  AnalyzedQueryPtr tight = Compile(
      "proc p[\"%cmd.exe\"] write file f as e\nreturn p, f");
  AnalyzedQueryPtr wide = Compile("proc q write file g as ev\nreturn q, g");
  ASSERT_TRUE(tight != nullptr && wide != nullptr);
  FleetOptions opts;
  opts.subsumption = false;
  FleetReport r = FleetAnalysis::Analyze({{"t", tight}, {"w", wide}}, opts);
  EXPECT_TRUE(r.relations.empty()) << r.ToString();
  // Duplicates are containment in both directions — never gated.
  FleetReport r2 = FleetAnalysis::Analyze({{"a", wide}, {"b", wide}}, opts);
  ASSERT_EQ(r2.relations.size(), 1u);
  EXPECT_EQ(r2.relations[0].kind, FleetRelation::Kind::kDuplicate);
}

// LIKE "ab%" and "ab%%" both match prefix "ab", so each query implies the
// other, yet they differ canonically (no SA050). The whole-fleet pass and
// the incremental check decide the pair through one relation, so both word
// it alike: the later query subsumes the earlier one.
TEST(FleetAnalysisTest, SA051MutualSubsumptionWordedAlikeEverywhere) {
  const std::string qa =
      "proc p[exe_name = \"ab%\"] write file f as e return distinct p";
  const std::string qb =
      "proc p[exe_name = \"ab%%\"] write file f as e return distinct p";
  AnalyzedQueryPtr a = Compile(qa);
  AnalyzedQueryPtr b = Compile(qb);
  ASSERT_TRUE(a != nullptr && b != nullptr);

  FleetReport r = FleetAnalysis::Analyze({{"qa", a}, {"qb", b}});
  ASSERT_EQ(r.relations.size(), 1u) << r.ToString();
  EXPECT_EQ(r.relations[0].kind, FleetRelation::Kind::kSubsumes);
  ASSERT_EQ(r.findings[1].size(), 1u);
  const std::string& whole = r.findings[1][0].message;
  EXPECT_EQ(whole.rfind("subsumes fleet query 'qa'", 0), 0u) << whole;

  std::vector<Diagnostic> inc = FleetAnalysis::CheckQuery(
      FleetEntry("qb", b), {FleetEntry("qa", a)});
  ASSERT_EQ(inc.size(), 1u);
  EXPECT_EQ(inc[0].code, "SA051");
  EXPECT_EQ(inc[0].message, whole);

  SaqlEngine engine;
  std::vector<Diagnostic> diags;
  ASSERT_TRUE(engine.AddQuery(qa, "qa").ok());
  ASSERT_TRUE(engine.AddQuery(qb, "qb", &diags).ok());
  const Diagnostic* d = Find(diags, "SA051");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->message, whole);
}

TEST(FleetAnalysisTest, RoutingEnvelopeCells) {
  AnalyzedQueryPtr q1 =
      Compile("proc p[\"%a%\"] write file f as e\nreturn p, f");
  AnalyzedQueryPtr q2 =
      Compile("proc p[\"%b%\"] write file f[\"%x%\"] as e\nreturn p, f");
  AnalyzedQueryPtr q3 = Compile("proc p write ip i as e\nreturn p, i");
  ASSERT_TRUE(q1 != nullptr && q2 != nullptr && q3 != nullptr);
  FleetReport r = FleetAnalysis::Analyze({{"q1", q1}, {"q2", q2}, {"q3", q3}});
  ASSERT_FALSE(r.cells.empty());
  // Cells are sorted by member count, most-shared first.
  EXPECT_EQ(r.cells[0].object_type, EntityType::kFile);
  EXPECT_EQ(r.cells[0].op, EventOp::kWrite);
  EXPECT_EQ(r.cells[0].members, (std::vector<size_t>{0, 1}));
  EXPECT_NE(r.ToString().find("file/write: 2 (q1, q2)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration: the fleet pass runs at AddQuery time.
// ---------------------------------------------------------------------------

TEST(FleetAnalysisTest, EngineAddQuerySurfacesFleetFindings) {
  SaqlEngine engine(SaqlEngine::Options{});
  std::vector<Diagnostic> diags;
  ASSERT_TRUE(engine
                  .AddQuery("proc p[\"%m.exe\"] write file f as e\n"
                            "return p, f",
                            "first", &diags)
                  .ok());
  EXPECT_EQ(Find(diags, "SA050"), nullptr);
  // A duplicate attaches (warning, not rejection) and names the incumbent.
  ASSERT_TRUE(engine
                  .AddQuery("proc q[\"%M.EXE\"] write file g as ev\n"
                            "return q, g",
                            "second", &diags)
                  .ok());
  const Diagnostic* dup = Find(diags, "SA050");
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(dup->message.find("'first'"), std::string::npos);
}

TEST(FleetAnalysisTest, EngineCooldownDisablesSubsumptionOnly) {
  SaqlEngine::Options opts;
  opts.query_options.alert_cooldown = 5 * kSecond;
  SaqlEngine engine(opts);
  std::vector<Diagnostic> diags;
  ASSERT_TRUE(engine
                  .AddQuery("proc p[\"%cmd.exe\"] write file f as e\n"
                            "return p, f",
                            "tight", &diags)
                  .ok());
  // Under a cooldown, a wider query may alert where the tight one is
  // suppressed and vice versa — SA051's containment claim is void.
  ASSERT_TRUE(engine
                  .AddQuery("proc q write file g as ev\nreturn q, g", "wide",
                            &diags)
                  .ok());
  EXPECT_EQ(Find(diags, "SA051"), nullptr);
  // SA050 stays: identical queries suppress identically.
  ASSERT_TRUE(engine
                  .AddQuery("proc r[\"%CMD.EXE\"] write file h as e3\n"
                            "return r, h",
                            "dup", &diags)
                  .ok());
  EXPECT_NE(Find(diags, "SA050"), nullptr);
}

// ---------------------------------------------------------------------------
// Differential soundness harness.
//
// Generates labeled query pairs — duplicates-by-construction (renaming,
// case flips, constraint reordering, name/path respelling), subsumed-by-
// construction (constraint dropping, pattern widening, op widening,
// numeric-bound loosening), and unrelated controls — asserts the analyzer
// claims exactly the constructed relation, then executes every claimed
// pair over a randomized event stream and checks the
// semantic contract the diagnostic text promises:
//
//   SA050  identical alert multisets, keyed (ts, group, values)
//   SA051  the tight query's alert multiset ⊆ the wide query's
//
// Alert labels are excluded from the key on purpose: renamed return
// variables change labels but not semantics.
// ---------------------------------------------------------------------------

struct GenPair {
  enum Kind { kDuplicate, kSubsume, kControl };
  Kind kind;
  std::string tag;      // generator recipe, for failure messages
  std::string a;        // kSubsume: the tight side
  std::string b;        // kSubsume: the wide side
};

struct QueryParts {
  std::string subj_pat;   // LIKE pattern for the subject proc
  std::string op;         // "write" | "read"
  bool file_obj;          // file object (vs ip)
  std::string obj_field;  // "path" | "name" / "dstip"
  std::string obj_pat;
  int amount_bound;       // -1: no global; else `amount > N`
};

std::string Render(const QueryParts& p, const char* pv, const char* ov,
                   const char* ev, bool upper) {
  auto casefold = [&](std::string s) {
    if (upper) {
      for (char& c : s) c = static_cast<char>(std::toupper(c));
    }
    return s;
  };
  std::ostringstream q;
  if (p.amount_bound >= 0) q << "amount > " << p.amount_bound << "\n";
  q << "proc " << pv << "[\"" << casefold(p.subj_pat) << "\"] " << p.op << " ";
  if (p.file_obj) {
    q << "file " << ov << "[" << p.obj_field << " = \"" << casefold(p.obj_pat)
      << "\"]";
  } else {
    q << "ip " << ov << "[dstip = \"" << casefold(p.obj_pat) << "\"]";
  }
  q << " as " << ev << "\nreturn " << pv << ", " << ov;
  return q.str();
}

GenPair MakePair(std::mt19937* rng, GenPair::Kind kind) {
  auto pick = [&](std::initializer_list<const char*> xs) {
    std::vector<const char*> v(xs);
    return std::string(v[(*rng)() % v.size()]);
  };
  QueryParts base;
  base.subj_pat =
      pick({"%chrome.exe", "%java.exe", "%cmd.exe", "%winword.exe"});
  base.op = pick({"write", "read"});
  base.file_obj = (*rng)() % 3 != 0;
  base.obj_field = "path";
  base.obj_pat = base.file_obj ? pick({"%mal.exe", "%drop.dll", "/tmp/%"})
                               : pick({"10.0.0.%", "%.129", "66.77.%"});
  base.amount_bound = (*rng)() % 2 == 0 ? 100 + int((*rng)() % 900) : -1;

  GenPair out;
  out.kind = kind;
  out.a = Render(base, "p", "obj", "e", false);
  QueryParts other = base;
  if (kind == GenPair::kDuplicate) {
    // Renaming alone is always applied; case flips and the file `name`
    // respelling ride along randomly.
    bool upper = (*rng)() % 2 == 0;
    if (base.file_obj && (*rng)() % 2 == 0) other.obj_field = "name";
    out.tag = std::string("dup") + (upper ? "+case" : "") +
              (other.obj_field == "name" ? "+name-spelling" : "");
    out.b = Render(other, "q2", "o2", "ev2", upper);
  } else if (kind == GenPair::kSubsume) {
    switch ((*rng)() % 4) {
      case 0:  // widen the subject pattern to match-all
        other.subj_pat = "%";
        out.tag = "sub+subj-widen";
        break;
      case 1:  // widen the object pattern to match-all
        other.obj_pat = "%";
        out.tag = "sub+obj-widen";
        break;
      case 2:  // widen write → read || write (reads stay reads)
        other.op = base.op == "write" ? "read || write" : "read || start";
        out.tag = "sub+op-widen";
        break;
      default:  // loosen (or drop) the numeric bound
        if (base.amount_bound < 0) {
          base.amount_bound = 500;  // re-render the tight side with a bound
          out.a = Render(base, "p", "obj", "e", false);
          other.amount_bound = -1;
          out.tag = "sub+bound-drop";
        } else {
          other.amount_bound = base.amount_bound / 10;
          out.tag = "sub+bound-loosen";
        }
        break;
    }
    out.b = Render(other, "q2", "o2", "ev2", false);
  } else {
    // Unrelated: flip the op AND use a disjoint object pattern, so
    // neither direction can be contained.
    other.op = base.op == "write" ? "read" : "write";
    other.obj_pat = base.file_obj ? "%benign.log" : "192.168.%";
    out.tag = "control";
    out.b = Render(other, "q2", "o2", "ev2", false);
  }
  return out;
}

EventBatch RandomStream(std::mt19937* rng, size_t n) {
  const char* exes[] = {"chrome.exe", "java.exe",    "cmd.exe",
                        "CHROME.EXE", "winword.exe", "svchost.exe"};
  const char* paths[] = {"/tmp/mal.exe", "/x/drop.dll", "/tmp/a.log",
                         "/var/benign.log", "/usr/lib/z.so"};
  const char* ips[] = {"10.0.0.5", "192.168.1.129", "66.77.1.2",
                       "172.16.3.4"};
  const char* hosts[] = {"h1", "h2", "h3", "h4"};
  EventBatch batch;
  Timestamp ts = 1'000'000;
  for (size_t i = 0; i < n; ++i) {
    ts += 1 + Timestamp((*rng)() % (200 * kMillisecond));
    EventBuilder b;
    b.Id(i + 1)
        .At(ts)
        .OnHost(hosts[(*rng)() % 4])
        .Subject(exes[(*rng)() % 6], 100 + int64_t((*rng)() % 8))
        .Op((*rng)() % 2 == 0 ? EventOp::kWrite : EventOp::kRead)
        .Amount(int64_t((*rng)() % 2000));
    if ((*rng)() % 3 != 0) {
      b.FileObject(paths[(*rng)() % 5]);
    } else {
      b.NetObject(ips[(*rng)() % 4]);
    }
    batch.push_back(b.Build());
  }
  return batch;
}

/// Runs both queries of a pair over `stream` and returns the two keyed
/// alert multisets (sorted), labels excluded.
std::pair<std::vector<std::string>, std::vector<std::string>> RunPair(
    const GenPair& pair, const EventBatch& stream) {
  SaqlEngine engine;
  EXPECT_TRUE(engine.AddQuery(pair.a, "qa").ok()) << pair.a;
  EXPECT_TRUE(engine.AddQuery(pair.b, "qb").ok()) << pair.b;
  VectorEventSource source(stream);
  EXPECT_TRUE(engine.Run(&source).ok());
  std::vector<std::string> ka, kb;
  for (const Alert& a : engine.alerts()) {
    std::string key = std::to_string(a.ts) + "|" + a.group;
    for (const auto& [label, value] : a.values) key += "|" + value.ToString();
    (a.query_name == "qa" ? ka : kb).push_back(std::move(key));
  }
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return {std::move(ka), std::move(kb)};
}

TEST(FleetDifferentialTest, ClaimedRelationsHoldUnderExecution) {
  std::mt19937 rng(0xF1EE7);
  std::vector<GenPair> pairs;
  for (int i = 0; i < 110; ++i) pairs.push_back(MakePair(&rng, GenPair::kDuplicate));
  for (int i = 0; i < 110; ++i) pairs.push_back(MakePair(&rng, GenPair::kSubsume));
  for (int i = 0; i < 40; ++i) pairs.push_back(MakePair(&rng, GenPair::kControl));

  size_t executed = 0;
  size_t alerting_pairs = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const GenPair& pair = pairs[i];
    SCOPED_TRACE(pair.tag + " #" + std::to_string(i) + "\n--- a ---\n" +
                 pair.a + "\n--- b ---\n" + pair.b);
    AnalyzedQueryPtr a = Compile(pair.a);
    AnalyzedQueryPtr b = Compile(pair.b);
    ASSERT_TRUE(a != nullptr && b != nullptr);

    // 1. The analyzer must claim exactly the constructed relation.
    FleetReport report = FleetAnalysis::Analyze({{"qa", a}, {"qb", b}});
    if (pair.kind == GenPair::kControl) {
      EXPECT_TRUE(report.relations.empty()) << report.ToString();
      continue;
    }
    ASSERT_EQ(report.relations.size(), 1u) << report.ToString();
    if (pair.kind == GenPair::kDuplicate) {
      EXPECT_EQ(report.relations[0].kind, FleetRelation::Kind::kDuplicate);
    } else {
      EXPECT_EQ(report.relations[0].kind, FleetRelation::Kind::kSubsumes);
      EXPECT_EQ(report.relations[0].a, 0u);  // tight side is subsumed
    }

    // 2. The claim must hold on a real stream.
    EventBatch stream = RandomStream(&rng, 250);
    auto [ka, kb] = RunPair(pair, stream);
    if (pair.kind == GenPair::kDuplicate) {
      EXPECT_EQ(ka, kb) << "duplicate pair diverged";
    } else {
      EXPECT_TRUE(std::includes(kb.begin(), kb.end(), ka.begin(), ka.end()))
          << "tight query alerted outside the wide query: |tight|="
          << ka.size() << " |wide|=" << kb.size();
    }
    if (!ka.empty() || !kb.empty()) ++alerting_pairs;
    ++executed;
  }
  // The harness is only meaningful if the claims were actually exercised:
  // every claimed pair ran, and a healthy fraction produced alerts.
  EXPECT_EQ(executed, 220u);
  EXPECT_GT(alerting_pairs, 50u);
}


// ---------------------------------------------------------------------------
// Incremental admission equals the whole-fleet pass.
//
// Registering a fleet one query at a time — through SaqlEngine::AddQuery,
// and through Session::AddQuery on top of an engine-registered prefix —
// must attach to each query exactly the SA050/SA051 findings (code and
// message) that Analyze over the same registration order gives it.
// ---------------------------------------------------------------------------

using NamedQuery = std::pair<std::string, std::string>;  // (name, text)

std::vector<NamedQuery> CorpusFleet() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           SAQL_QUERY_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".saql" &&
        entry.path().parent_path().filename() != "fixtures") {
      files.push_back(
          std::filesystem::relative(entry.path(), SAQL_QUERY_DIR).string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<NamedQuery> out;
  for (const std::string& f : files) {
    out.emplace_back(f, testing::ReadQueryFile(f));
  }
  return out;
}

std::vector<NamedQuery> FixtureFleet() {
  return {{"dup_a", testing::ReadQueryFile(
                        "apt/fixtures/dup_dropper_write_a.saql")},
          {"dup_b", testing::ReadQueryFile(
                        "apt/fixtures/dup_dropper_write_b.saql")}};
}

/// Flattens generated pairs into one fleet, so relations also form across
/// pairs that happen to share a base.
std::vector<NamedQuery> GeneratedFleet() {
  std::mt19937 rng(0x1AC);
  std::vector<NamedQuery> out;
  for (int i = 0; i < 12; ++i) {
    GenPair pair = MakePair(&rng, static_cast<GenPair::Kind>(i % 3));
    out.emplace_back("g" + std::to_string(i) + "a", pair.a);
    out.emplace_back("g" + std::to_string(i) + "b", pair.b);
  }
  return out;
}

std::vector<std::string> FleetFindings(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) {
    if (d.code == "SA050" || d.code == "SA051") {
      out.push_back(d.code + ": " + d.message);
    }
  }
  return out;
}

TEST(FleetIncrementalTest, AddQueryFindingsEqualWholeFleetPass) {
  const std::vector<std::pair<std::string, std::vector<NamedQuery>>> fleets =
      {{"corpus", CorpusFleet()},
       {"fixtures", FixtureFleet()},
       {"generated", GeneratedFleet()}};
  size_t related = 0;
  for (const auto& [fleet_name, fleet] : fleets) {
    ASSERT_GE(fleet.size(), 2u) << fleet_name;
    for (uint32_t seed : {1u, 2u, 3u}) {
      std::vector<NamedQuery> order = fleet;
      std::mt19937 rng(seed);
      std::shuffle(order.begin(), order.end(), rng);
      SCOPED_TRACE(fleet_name + " seed " + std::to_string(seed));

      std::vector<FleetAnalysis::Member> members;
      for (const auto& [name, text] : order) {
        AnalyzedQueryPtr aq = Compile(text);
        ASSERT_NE(aq, nullptr) << name;
        members.push_back({name, aq});
      }
      FleetReport report = FleetAnalysis::Analyze(members);
      related += report.relations.size();

      // Engine leg: every query registered through SaqlEngine::AddQuery.
      SaqlEngine engine;
      for (size_t i = 0; i < order.size(); ++i) {
        std::vector<Diagnostic> diags;
        ASSERT_TRUE(engine.AddQuery(order[i].second, order[i].first, &diags)
                        .ok())
            << order[i].first;
        EXPECT_EQ(FleetFindings(diags), FleetFindings(report.findings[i]))
            << "engine AddQuery of " << order[i].first;
      }

      // Session leg: the first half registered on the engine (snapshot at
      // open), the rest attached through Session::AddQuery.
      const size_t split = order.size() / 2;
      SaqlEngine prefix;
      for (size_t i = 0; i < split; ++i) {
        ASSERT_TRUE(prefix.AddQuery(order[i].second, order[i].first).ok());
      }
      auto session = prefix.OpenSession();
      ASSERT_TRUE(session.ok()) << session.status();
      for (size_t i = split; i < order.size(); ++i) {
        std::vector<Diagnostic> diags;
        auto h = (*session)->AddQuery(order[i].second, order[i].first, &diags);
        ASSERT_TRUE(h.ok()) << order[i].first << ": " << h.status();
        EXPECT_EQ(FleetFindings(diags), FleetFindings(report.findings[i]))
            << "session AddQuery of " << order[i].first;
        EXPECT_EQ(FleetFindings((*h)->diagnostics()),
                  FleetFindings(report.findings[i]));
      }
      ASSERT_TRUE((*session)->Close().ok());
    }
  }
  // The fixture pair contributes one SA050 per order, the generated fleet
  // several SA050/SA051 more.
  EXPECT_GT(related, 3u);
}

}  // namespace
}  // namespace saql
