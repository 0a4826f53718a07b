// Fleet index tests: the indexed admission check must give exactly the
// findings of an all-pairs pass — same relations, same order — over
// generated fleets built to stress the index's soundness rule (duplicates
// under case and spelling variants, subsumption both ways, mutual
// subsumption, `%`-only and numeric-interval constraints, stateful
// members, subsumption off, members removed and re-added), and a new
// distinct tenant must examine a constant number of candidates however
// large the fleet.

#include <algorithm>
#include <cctype>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fleet_analysis.h"
#include "engine/engine.h"
#include "parser/analyzer.h"

namespace saql {
namespace {

using Relation = FleetAnalysis::PairRelation;

AnalyzedQueryPtr Compile(const std::string& text) {
  Result<AnalyzedQueryPtr> aq = CompileSaql(text);
  EXPECT_TRUE(aq.ok()) << text << "\n" << aq.status();
  return aq.ok() ? *aq : nullptr;
}

// ---------------------------------------------------------------------------
// Generated fleets.
// ---------------------------------------------------------------------------

/// One generated query, kept as parts so a duplicate can be re-rendered
/// with other variable names, constraint order and string case.
struct GenQuery {
  std::vector<std::string> subject;  // subject constraints
  std::string op;
  std::string object_type;           // "file" | "ip"
  std::vector<std::string> object;   // object constraints
  std::string global;                // "" or one global constraint
  bool stateful = false;
};

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

/// Renders `q`; `variant` renames the variables, reverses constraint order
/// and upper-cases string literals (a duplicate of the plain rendering).
std::string Render(const GenQuery& q, bool variant) {
  auto list = [&](std::vector<std::string> cs) {
    if (variant) {
      std::reverse(cs.begin(), cs.end());
      for (std::string& c : cs) {
        size_t quote = c.find('"');
        if (quote != std::string::npos) {
          c = c.substr(0, quote) + Upper(c.substr(quote));
        }
      }
    }
    std::string out;
    for (size_t i = 0; i < cs.size(); ++i) out += (i ? ", " : "") + cs[i];
    return out;
  };
  const char* p = variant ? "subj" : "p";
  const char* o = variant ? "obj" : "o";
  const char* e = variant ? "ev" : "e";
  std::ostringstream s;
  if (!q.global.empty()) s << q.global << "\n";
  s << "proc " << p;
  if (!q.subject.empty()) s << "[" << list(q.subject) << "]";
  s << " " << q.op << " " << q.object_type << " " << o;
  if (!q.object.empty()) s << "[" << list(q.object) << "]";
  s << " as " << e << "\n";
  if (q.stateful) {
    s << "#time(10 s)\nstate ss {\n  total := sum(" << e
      << ".amount)\n} group by " << p << "\nalert ss.total > 26000\n"
      << "return " << p << ", ss.total";
  } else {
    s << "return distinct " << p;
  }
  return s.str();
}

template <typename T>
const T& Pick(std::mt19937* rng, const std::vector<T>& xs) {
  return xs[(*rng)() % xs.size()];
}

/// Small value pools, so relations form often: exact names and their LIKE
/// widenings (prefix, suffix, `%`-only, and `%%` spellings equivalent to
/// them), numeric points and intervals on pid and amount.
GenQuery RandomQuery(std::mt19937* rng) {
  static const std::vector<std::string> kExe = {
      "exe_name = \"tenant1.exe\"", "exe_name = \"tenant2.exe\"",
      "exe_name = \"%tenant1.exe\"",
      "exe_name = \"ten%\"",        "exe_name = \"ten%%\"",
      "exe_name = \"%\"",           "exe_name = \"%%\"",
      "image = \"tenant1.exe\""};
  static const std::vector<std::string> kPid = {
      "pid = 1500", "pid = 1501", "pid > 1000", "pid >= 1000",
      "pid < 2000", "pid != 7"};
  static const std::vector<std::string> kUser = {
      "user = \"svc\"", "user = \"%\"", "user = \"sv%\""};
  static const std::vector<std::string> kPath = {
      "path = \"/tmp/a.log\"", "name = \"/tmp/a.log\"",
      "path = \"%a.log\"", "path = \"/tmp/%\""};
  static const std::vector<std::string> kIp = {
      "dstip = \"10.0.0.5\"", "dstip = \"10.0.0.%\"", "dst_port = 443",
      "dst_port > 400"};
  static const std::vector<std::string> kGlobal = {
      "", "", "amount > 100", "amount > 10", "amount = 500", "amount >= 100"};
  static const std::vector<std::string> kOps = {"write", "read",
                                                "read || write"};
  GenQuery q;
  if ((*rng)() % 4 != 0) q.subject.push_back(Pick(rng, kExe));
  if ((*rng)() % 2 == 0) q.subject.push_back(Pick(rng, kPid));
  if ((*rng)() % 4 == 0) q.subject.push_back(Pick(rng, kUser));
  q.op = Pick(rng, kOps);
  q.object_type = (*rng)() % 3 == 0 ? "ip" : "file";
  if ((*rng)() % 2 == 0) {
    q.object.push_back(Pick(rng, q.object_type == "ip" ? kIp : kPath));
  }
  q.global = Pick(rng, kGlobal);
  q.stateful = (*rng)() % 6 == 0;
  return q;
}

using NamedText = std::pair<std::string, std::string>;

/// `n` queries; about a third are variant renderings (duplicates) of an
/// earlier query, the rest fresh draws that relate by chance.
std::vector<NamedText> GeneratedFleet(uint32_t seed, size_t n) {
  std::mt19937 rng(seed);
  std::vector<GenQuery> parts;
  std::vector<NamedText> out;
  for (size_t i = 0; i < n; ++i) {
    bool dup = !parts.empty() && rng() % 3 == 0;
    GenQuery q = dup ? parts[rng() % parts.size()] : RandomQuery(&rng);
    out.emplace_back("q" + std::to_string(i), Render(q, dup));
    parts.push_back(q);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The brute-force reference.
// ---------------------------------------------------------------------------

/// The leading clause of a finding up to the quoted member name — what
/// tells the relation and the member apart.
std::string Head(const Diagnostic& d) {
  size_t open = d.message.find('\'');
  size_t close = d.message.find('\'', open + 1);
  return d.code + " " + d.message.substr(0, close + 1);
}

std::string ExpectedHead(Relation r, const std::string& other) {
  switch (r) {
    case Relation::kDuplicate:
      return "SA050 exact duplicate of fleet query '" + other + "'";
    case Relation::kLaterTighter:
      return "SA051 subsumed by fleet query '" + other + "'";
    case Relation::kLaterWider:
      return "SA051 subsumes fleet query '" + other + "'";
    case Relation::kNone:
      break;
  }
  return "";
}

std::vector<std::string> Heads(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) {
    if (d.code == "SA050" || d.code == "SA051") out.push_back(Head(d));
  }
  return out;
}

/// `later`'s findings against every member of `earlier`, decided pair by
/// pair in order.
std::vector<std::string> BruteForceHeads(
    const std::vector<FleetEntry>& earlier, const FleetEntry& later,
    const FleetOptions& options) {
  std::vector<std::string> out;
  for (const FleetEntry& m : earlier) {
    Relation r = FleetAnalysis::Relate(m, later, options);
    if (r != Relation::kNone) out.push_back(ExpectedHead(r, m.name));
  }
  return out;
}

TEST(FleetIndexTest, CheckEqualsAllPairs) {
  size_t duplicates = 0, subsumptions = 0, pruned = 0, checked = 0;
  for (uint32_t seed : {11u, 12u, 13u, 14u}) {
    const std::vector<NamedText> fleet = GeneratedFleet(seed, 64);
    for (bool subsumption : {true, false}) {
      FleetOptions options;
      options.subsumption = subsumption;
      for (uint32_t shuffle : {1u, 2u}) {
        std::vector<NamedText> order = fleet;
        std::mt19937 rng(seed * 31 + shuffle);
        std::shuffle(order.begin(), order.end(), rng);
        SCOPED_TRACE("seed " + std::to_string(seed) + " shuffle " +
                     std::to_string(shuffle) + " subsumption " +
                     std::to_string(subsumption));

        std::vector<FleetAnalysis::Member> members;
        std::vector<FleetEntry> entries;
        for (const auto& [name, text] : order) {
          AnalyzedQueryPtr aq = Compile(text);
          ASSERT_NE(aq, nullptr) << name;
          members.push_back({name, aq});
          entries.emplace_back(name, aq);
        }

        // Brute force: every pair, in Analyze's (later, earlier) order.
        std::vector<FleetRelation> relations;
        for (size_t j = 0; j < entries.size(); ++j) {
          for (size_t i = 0; i < j; ++i) {
            Relation r = FleetAnalysis::Relate(entries[i], entries[j], options);
            if (r == Relation::kNone) continue;
            bool flip = r == Relation::kLaterTighter;
            relations.push_back(
                {flip ? j : i, flip ? i : j,
                 r == Relation::kDuplicate ? FleetRelation::Kind::kDuplicate
                                           : FleetRelation::Kind::kSubsumes});
          }
        }

        FleetReport report = FleetAnalysis::Analyze(members, options);
        ASSERT_EQ(report.relations.size(), relations.size());
        for (size_t k = 0; k < relations.size(); ++k) {
          EXPECT_EQ(report.relations[k].a, relations[k].a) << k;
          EXPECT_EQ(report.relations[k].b, relations[k].b) << k;
          EXPECT_EQ(report.relations[k].kind, relations[k].kind) << k;
          (relations[k].kind == FleetRelation::Kind::kDuplicate
               ? duplicates
               : subsumptions)++;
        }

        // Incremental: each member checked against the ones before it.
        Fleet indexed;
        for (size_t j = 0; j < entries.size(); ++j) {
          std::vector<FleetEntry> earlier(entries.begin(),
                                          entries.begin() + j);
          std::vector<std::string> want =
              BruteForceHeads(earlier, entries[j], options);
          std::vector<Diagnostic> got = indexed.Check(entries[j], options);
          EXPECT_EQ(Heads(got), want) << order[j].first;
          ASSERT_EQ(got.size(), report.findings[j].size());
          for (size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].message, report.findings[j][k].message);
          }
          pruned += j - indexed.Candidates(entries[j]).size();
          ++checked;
          indexed.Add(entries[j]);
        }
      }
    }
  }
  // The fleets must exercise every relation, and the index must prune.
  EXPECT_GT(duplicates, 20u);
  EXPECT_GT(subsumptions, 20u);
  EXPECT_GT(pruned, checked);
}

// The session's fleet under churn: members retract and come back under new
// names, and every admission's findings still equal the brute-force pass
// over the session's active queries, in attach order — through the
// session API and on a bare `Fleet` alike.
TEST(FleetIndexTest, CheckEqualsAllPairsUnderRemoveAndReAdd) {
  size_t related = 0;
  for (uint32_t seed : {21u, 22u}) {
    for (bool subsumption : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " subsumption " +
                   std::to_string(subsumption));
      FleetOptions options;
      options.subsumption = subsumption;
      SaqlEngine::Options eo;
      if (!subsumption) eo.query_options.alert_cooldown = 5 * kSecond;
      SaqlEngine engine(eo);
      const std::vector<NamedText> pool = GeneratedFleet(seed, 48);
      std::vector<FleetEntry> active;  // attach order
      Fleet fleet;
      for (size_t i = 0; i < 16; ++i) {
        if (engine.AddQuery(pool[i].second, pool[i].first).ok()) {
          active.emplace_back(pool[i].first, Compile(pool[i].second));
          fleet.Add(active.back());
        }
      }
      auto session = engine.OpenSession();
      ASSERT_TRUE(session.ok()) << session.status();

      std::mt19937 rng(seed);
      size_t next = 16;
      for (int step = 0; step < 80; ++step) {
        if (!active.empty() && rng() % 3 == 0) {
          size_t victim = rng() % active.size();
          const std::string name = active[victim].name;
          ASSERT_TRUE((*session)->RemoveQuery(name).ok()) << name;
          ASSERT_TRUE(fleet.Remove(name));
          active.erase(active.begin() + static_cast<long>(victim));
          continue;
        }
        // A fresh pool query, or one seen before back under a new name.
        const NamedText& src = pool[rng() % 2 == 0 && next < pool.size()
                                        ? next++
                                        : rng() % next];
        const std::string name = src.first + "-s" + std::to_string(step);
        FleetEntry entry(name, Compile(src.second));
        std::vector<std::string> want =
            BruteForceHeads(active, entry, options);
        EXPECT_EQ(Heads(fleet.Check(entry, options)), want) << name;
        std::vector<Diagnostic> diags;
        auto h = (*session)->AddQuery(src.second, name, &diags);
        if (!h.ok()) continue;  // rejected by lint: not a member
        EXPECT_EQ(Heads(diags), want) << name;
        related += want.size();
        active.push_back(entry);
        fleet.Add(entry);
      }
      ASSERT_TRUE((*session)->Close().ok());
    }
  }
  EXPECT_GT(related, 10u);
}

// ---------------------------------------------------------------------------
// Admission work does not grow with fleet size.
// ---------------------------------------------------------------------------

/// The A7 tenant shapes; tenant `t` watches its own executable.
std::string TenantQuery(int t, int shape) {
  static const char* const kShapes[][2] = {
      {"write", "ip i"},
      {"read", "file f"},
      {"write", "file f"},
      {"start", "proc q"},
  };
  std::string subj = "exe_name = \"tenant" + std::to_string(t) + ".exe\"";
  if (shape == 1) subj += ", pid > 1000";
  return "proc p[" + subj + "] " + kShapes[shape][0] + " " +
         kShapes[shape][1] + " as e return distinct p";
}

TEST(FleetIndexTest, DistinctTenantExaminesFewCandidates) {
  constexpr int kTenants = 1024;
  Fleet fleet;
  for (int t = 0; t < kTenants; ++t) {
    AnalyzedQueryPtr aq = Compile(TenantQuery(t, t % 4));
    ASSERT_NE(aq, nullptr);
    fleet.Add(FleetEntry("t" + std::to_string(t), aq));
  }
  ASSERT_EQ(fleet.size(), static_cast<size_t>(kTenants));

  for (int shape = 0; shape < 4; ++shape) {
    FleetEntry fresh("fresh", Compile(TenantQuery(kTenants + 7, shape)));
    EXPECT_LE(fleet.Candidates(fresh).size(), 2u) << "shape " << shape;
    EXPECT_TRUE(fleet.Check(fresh, FleetOptions()).empty());
  }

  // A duplicate of a member finds exactly that member.
  const int member = 517;
  FleetEntry dup("dup", Compile(TenantQuery(member, member % 4)));
  std::vector<const FleetEntry*> candidates = fleet.Candidates(dup);
  EXPECT_LE(candidates.size(), 2u);
  ASSERT_TRUE(std::any_of(
      candidates.begin(), candidates.end(),
      [&](const FleetEntry* e) { return e->name == "t517"; }));
  std::vector<Diagnostic> findings = fleet.Check(dup, FleetOptions());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(Head(findings[0]), ExpectedHead(Relation::kDuplicate, "t517"));
}

}  // namespace
}  // namespace saql
