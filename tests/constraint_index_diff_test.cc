// Differential matching harness for the shared member-side
// ConstraintIndex: on seeded random query sets (shared and disjoint
// constraint pools; eq / ne / LIKE / numeric ops; stateless and stateful
// queries) and seeded random event batches, index-driven matching must
// agree with brute-force matching on
//   - the per-event member *set* (which members' full conjunctions pass),
//   - every member's QueryStats transitions, and
//   - the emitted alert sequence,
// across ≥1000 generated cases, and end-to-end through `SaqlEngine` on a
// sampled subset plus the full checked-in query corpus.

#include "engine/constraint_index.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "collect/enterprise_sim.h"
#include "core/interner.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

// ---------------------------------------------------------------------------
// Seeded query/event generator.
// ---------------------------------------------------------------------------

struct Shape {
  const char* op_spelling;
  const char* object_decl;  // "ip i" / "file f" / "proc q"
  EventOp op;
  EntityType object_type;
};

constexpr Shape kGenShapes[] = {
    {"write", "ip i", EventOp::kWrite, EntityType::kNetwork},
    {"read", "file f", EventOp::kRead, EntityType::kFile},
    {"delete", "file f", EventOp::kDelete, EntityType::kFile},
    {"start", "proc q", EventOp::kStart, EntityType::kProcess},
};

class CaseGenerator {
 public:
  explicit CaseGenerator(uint64_t seed) : rng_(seed) {}

  int Pick(int n) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(n));
  }
  bool Chance(int pct) { return Pick(100) < pct; }

  // Values come from small shared pools (so constraints repeat across
  // members — the sharing the index exploits); event attributes draw from
  // the same pools plus out-of-pool noise.
  std::string Exe() { return "app" + std::to_string(Pick(6)) + ".exe"; }
  std::string User() { return "user" + std::to_string(Pick(4)); }
  std::string Host() { return "host" + std::to_string(Pick(3)); }
  std::string Path() { return "/data/f" + std::to_string(Pick(5)); }
  std::string ChildExe() {
    return "child" + std::to_string(Pick(4)) + ".exe";
  }
  std::string Ip() { return "10.0.0." + std::to_string(Pick(5) + 1); }

  std::string SubjectConstraints() {
    std::vector<std::string> cs;
    if (Chance(70)) {
      switch (Pick(4)) {
        case 0:  // exact interned equality — the probe-group path
          cs.push_back("exe_name = \"" + MaybeUpper(Exe()) + "\"");
          break;
        case 1:  // suffix LIKE — residual slot
          cs.push_back("exe_name = \"%" + Exe() + "\"");
          break;
        case 2:  // exact inequality — residual slot
          cs.push_back("exe_name != \"" + Exe() + "\"");
          break;
        default:
          cs.push_back("user = \"" + User() + "\"");
      }
    }
    if (Chance(25)) {
      cs.push_back("pid " + std::string(Chance(50) ? ">" : "<=") + " " +
                   std::to_string(1000 + Pick(6) * 20));
    }
    return Join(cs);
  }

  std::string ObjectConstraints(EntityType type) {
    std::vector<std::string> cs;
    switch (type) {
      case EntityType::kFile:
        if (Chance(60)) {
          cs.push_back(Chance(50)
                           ? "name = \"" + Path() + "\""
                           : "name = \"%f" + std::to_string(Pick(5)) + "\"");
        }
        break;
      case EntityType::kProcess:
        if (Chance(60)) cs.push_back("exe_name = \"" + ChildExe() + "\"");
        if (Chance(20)) {
          cs.push_back("pid > " + std::to_string(5000 + Pick(3)));
        }
        break;
      case EntityType::kNetwork:
        if (Chance(60)) cs.push_back("dstip = \"" + Ip() + "\"");
        if (Chance(20)) {
          cs.push_back("dport > " + std::to_string(Pick(2) * 400));
        }
        break;
    }
    return Join(cs);
  }

  std::string Query(const Shape& shape) {
    std::ostringstream q;
    if (Chance(30)) {
      q << "agentid " << (Chance(75) ? "=" : "!=") << " \"" << Host()
        << "\"\n";
    }
    std::string subj = SubjectConstraints();
    std::string obj = ObjectConstraints(shape.object_type);
    q << "proc p";
    if (!subj.empty()) q << "[" << subj << "]";
    q << " " << shape.op_spelling << " " << shape.object_decl;
    if (!obj.empty()) q << "[" << obj << "]";
    q << " as e\n";
    if (Chance(25)) {
      q << "#time(10 s)\n"
        << "state ss { "
        << (Chance(50) ? "c := count()" : "c := sum(e.amount)")
        << " } group by p\n"
        << "alert ss.c > " << Pick(2) << "\n"
        << "return p, ss.c\n";
    } else {
      q << "return " << (Chance(20) ? "distinct " : "") << "p, e.amount\n";
    }
    return q.str();
  }

  Event MakeEvent(uint64_t id, Timestamp ts, const Shape& shape) {
    Event e = EventBuilder()
                  .Id(id)
                  .At(ts)
                  .OnHost(Chance(85) ? Host() : "other-host")
                  .Subject(Chance(80) ? MaybeUpper(Exe()) : "noise.exe",
                           1000 + Pick(140))
                  .Op(shape.op)
                  .Build();
    e.subject.user = Chance(80) ? User() : "nobody";
    e.object_type = shape.object_type;
    switch (shape.object_type) {
      case EntityType::kFile:
        e.obj_file.path = Chance(80) ? Path() : "/tmp/noise";
        break;
      case EntityType::kProcess:
        e.obj_proc.exe_name = Chance(80) ? ChildExe() : "noise-child.exe";
        e.obj_proc.pid = 5000 + Pick(4);
        break;
      case EntityType::kNetwork:
        e.obj_net.dst_ip = Chance(80) ? Ip() : "192.168.9.9";
        e.obj_net.dst_port = Chance(70) ? 443 : 80;
        e.obj_net.src_ip = "10.9.9.9";
        break;
    }
    e.amount = 100 + Pick(1000);
    return e;
  }

 private:
  std::string MaybeUpper(std::string s) {
    if (!Chance(25)) return s;
    for (char& c : s) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return s;
  }

  static std::string Join(const std::vector<std::string>& cs) {
    std::string out;
    for (const std::string& c : cs) {
      if (!out.empty()) out += ", ";
      out += c;
    }
    return out;
  }

  std::mt19937_64 rng_;
};

struct GeneratedCase {
  std::vector<std::string> queries;
  EventBatch events;
  bool intern = true;
};

GeneratedCase MakeCase(uint64_t seed) {
  CaseGenerator gen(seed);
  GeneratedCase c;
  const int num_shapes = 1 + gen.Pick(3);
  int shape_idx[3];
  for (int s = 0; s < num_shapes; ++s) shape_idx[s] = gen.Pick(4);
  const int num_queries = 2 + gen.Pick(9);
  for (int i = 0; i < num_queries; ++i) {
    c.queries.push_back(
        gen.Query(kGenShapes[shape_idx[gen.Pick(num_shapes)]]));
  }
  const int num_events = 80 + gen.Pick(80);
  Timestamp ts = kSecond;
  for (int i = 0; i < num_events; ++i) {
    ts += gen.Pick(3) * kSecond;  // occasional equal timestamps
    c.events.push_back(
        gen.MakeEvent(static_cast<uint64_t>(i + 1), ts,
                      kGenShapes[shape_idx[gen.Pick(num_shapes)]]));
  }
  c.intern = gen.Chance(50);
  return c;
}

// ---------------------------------------------------------------------------
// Part A: group-level differential — 1000 cases, per-member stats + alert
// sequences, interned and un-interned events.
// ---------------------------------------------------------------------------

/// One compiled side of a differential run. Filled in place (the alert
/// sinks capture the address of `alerts`, which must stay stable).
struct CompiledSide {
  std::vector<std::unique_ptr<CompiledQuery>> queries;
  std::vector<std::pair<std::string, std::string>> alerts;  // (query, text)
  std::unique_ptr<ConcurrentQueryScheduler> scheduler;
};

void CompileSide(const std::vector<std::string>& texts, bool member_index,
                 Interner& interner, CompiledSide* side) {
  ConcurrentQueryScheduler::Options opts;
  opts.enable_member_index = member_index;
  opts.min_index_members = 2;  // maximal index coverage for the harness
  side->scheduler = std::make_unique<ConcurrentQueryScheduler>(opts);
  auto* alerts = &side->alerts;
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<AnalyzedQueryPtr> aq = CompileSaql(texts[i]);
    ASSERT_TRUE(aq.ok()) << texts[i] << "\n" << aq.status();
    std::string name = "q" + std::to_string(i);
    Result<std::unique_ptr<CompiledQuery>> q =
        CompiledQuery::Create(aq.value(), name);
    ASSERT_TRUE(q.ok()) << q.status();
    (*q)->ReInternSymbols(interner);
    (*q)->SetAlertSink([alerts, name](const Alert& a) {
      alerts->emplace_back(name, a.ToString());
    });
    side->queries.push_back(std::move(q).value());
  }
  for (auto& q : side->queries) side->scheduler->AddQuery(q.get());
  side->scheduler->BuildGroups();
}

/// Replays `events` through the groups the way the executor would: fixed
/// batches, watermark per batch, finish at the end.
void DriveGroups(ConcurrentQueryScheduler* sched, const EventBatch& events) {
  constexpr size_t kBatch = 32;
  std::vector<QueryGroup*> groups = sched->groups();
  Timestamp max_ts = INT64_MIN;
  for (size_t off = 0; off < events.size(); off += kBatch) {
    size_t n = std::min(kBatch, events.size() - off);
    EventRefs refs;
    for (size_t k = 0; k < n; ++k) {
      const Event& e = events[off + k];
      if (e.ts > max_ts) max_ts = e.ts;
      refs.push_back(&e);
    }
    for (QueryGroup* g : groups) g->OnBatch(refs);
    for (QueryGroup* g : groups) g->OnWatermark(max_ts);
  }
  for (QueryGroup* g : groups) g->OnFinish();
}

TEST(ConstraintIndexDiffTest, ThousandGeneratedCasesGroupLevel) {
  uint64_t total_alerts = 0;
  uint64_t total_matches = 0;
  uint64_t indexed_groups = 0;
  uint64_t interned_probe_slots = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    GeneratedCase c = MakeCase(seed);
    Interner interner;
    CompiledSide brute, indexed;
    ASSERT_NO_FATAL_FAILURE(CompileSide(c.queries, false, interner, &brute));
    ASSERT_NO_FATAL_FAILURE(
        CompileSide(c.queries, true, interner, &indexed));
    ASSERT_EQ(brute.scheduler->num_indexed_groups(), 0u);
    indexed_groups += indexed.scheduler->num_indexed_groups();

    EventBatch brute_events = c.events;  // separate buffers on purpose
    EventBatch index_events = c.events;
    if (c.intern) {
      InternEventSpan(interner, brute_events.data(), brute_events.size());
      InternEventSpan(interner, index_events.data(), index_events.size());
      for (QueryGroup* g : indexed.scheduler->groups()) {
        if (g->index() != nullptr) {
          interned_probe_slots += g->index()->num_probe_slots();
        }
      }
    }
    DriveGroups(brute.scheduler.get(), brute_events);
    DriveGroups(indexed.scheduler.get(), index_events);

    // Full per-member stats parity.
    for (size_t i = 0; i < brute.queries.size(); ++i) {
      const CompiledQuery::QueryStats& bs = brute.queries[i]->stats();
      const CompiledQuery::QueryStats& is = indexed.queries[i]->stats();
      ASSERT_EQ(bs.events_in, is.events_in) << "seed " << seed << " q" << i;
      ASSERT_EQ(bs.events_past_global, is.events_past_global)
          << "seed " << seed << " q" << i;
      ASSERT_EQ(bs.matches, is.matches) << "seed " << seed << " q" << i;
      ASSERT_EQ(bs.windows_closed, is.windows_closed)
          << "seed " << seed << " q" << i;
      ASSERT_EQ(bs.alerts, is.alerts) << "seed " << seed << " q" << i;
      ASSERT_EQ(bs.eval_errors, is.eval_errors)
          << "seed " << seed << " q" << i;
      total_matches += bs.matches;
    }
    // Alert *sequence* identity (member-major delivery is order-preserving
    // with the index on or off).
    ASSERT_EQ(brute.alerts, indexed.alerts) << "seed " << seed;
    total_alerts += brute.alerts.size();
  }
  // The harness must not be vacuous.
  EXPECT_GT(total_alerts, 1000u);
  EXPECT_GT(total_matches, 10000u);
  EXPECT_GT(indexed_groups, 500u);
  EXPECT_GT(interned_probe_slots, 0u);
}

TEST(ConstraintIndexDiffTest, MemberSetsMatchBruteForcePerEvent) {
  // Explicit per-event member-set differential: the index's matched /
  // passed_global bitsets must equal direct evaluation of each member's
  // compiled constraints, event by event, interned or not.
  uint64_t checked_events = 0;
  for (uint64_t seed = 2000; seed < 2200; ++seed) {
    GeneratedCase c = MakeCase(seed);
    Interner interner;
    CompiledSide side;
    ASSERT_NO_FATAL_FAILURE(CompileSide(c.queries, true, interner, &side));
    if (c.intern) InternEventSpan(interner, c.events.data(), c.events.size());

    // Recover each group's member list exactly like the scheduler built
    // it: registration order within equal signatures.
    std::map<std::string, std::vector<CompiledQuery*>> members_by_sig;
    for (auto& q : side.queries) {
      members_by_sig[q->GroupSignature()].push_back(q.get());
    }
    ConstraintIndex::MatchResult result;
    for (QueryGroup* g : side.scheduler->groups()) {
      const ConstraintIndex* index = g->index();
      if (index == nullptr) continue;
      const std::vector<CompiledQuery*>& members =
          members_by_sig[g->signature()];
      ASSERT_EQ(members.size(), index->num_members());
      for (const Event& e : c.events) {
        if (!g->master()->StructuralMatchAny(e)) continue;
        index->Match(e, &result);
        ++checked_events;
        for (size_t i = 0; i < members.size(); ++i) {
          ASSERT_EQ(testing::BitAt(result.passed_global, i),
                    testing::BruteForcePassesGlobal(*members[i], e))
              << "seed " << seed << " event " << e.id << " member " << i;
          ASSERT_EQ(testing::BitAt(result.matched, i),
                    testing::BruteForceMatches(*members[i], e))
              << "seed " << seed << " event " << e.id << " member " << i;
        }
      }
    }
  }
  EXPECT_GT(checked_events, 5000u);
}

// ---------------------------------------------------------------------------
// Part B: engine-level differential.
// ---------------------------------------------------------------------------

std::vector<std::string> RunEngineCase(const GeneratedCase& c,
                                       bool member_index) {
  SaqlEngine::Options opts;
  opts.enable_member_index = member_index;
  SaqlEngine engine(opts);
  for (size_t i = 0; i < c.queries.size(); ++i) {
    Status st = engine.AddQuery(c.queries[i], "q" + std::to_string(i));
    EXPECT_TRUE(st.ok()) << c.queries[i] << "\n" << st;
  }
  VectorEventSource source(c.events);
  Status st = engine.Run(&source);
  EXPECT_TRUE(st.ok()) << st;
  std::vector<std::string> alerts;
  for (const Alert& a : engine.alerts()) alerts.push_back(a.ToString());
  return alerts;
}

TEST(ConstraintIndexDiffTest, EngineLevel) {
  uint64_t total_alerts = 0;
  for (uint64_t seed = 3000; seed < 3060; ++seed) {
    GeneratedCase c = MakeCase(seed);
    std::vector<std::string> brute = RunEngineCase(c, false);
    ASSERT_EQ(RunEngineCase(c, true), brute) << "seed " << seed;
    total_alerts += brute.size();
  }
  EXPECT_GT(total_alerts, 50u);
}

// ---------------------------------------------------------------------------
// Checked-in corpus differential.
// ---------------------------------------------------------------------------

const char* const kCorpusQueries[][2] = {
    {"q1-exfiltration", "query1_rule.saql"},
    {"q2-timeseries", "query2_timeseries.saql"},
    {"q3-invariant", "query3_invariant.saql"},
    {"q4-outlier", "query4_outlier.saql"},
    {"r1-initial-compromise", "apt/r1_initial_compromise.saql"},
    {"r2-malware-infection", "apt/r2_malware_infection.saql"},
    {"r3-privilege-escalation", "apt/r3_privilege_escalation.saql"},
    {"r4-penetration", "apt/r4_penetration.saql"},
    {"a6-invariant-excel", "apt/a6_invariant_excel.saql"},
    {"a7-timeseries-network", "apt/a7_timeseries_network.saql"},
    {"a8-outlier-dbscan", "apt/a8_outlier_dbscan.saql"},
};

std::vector<std::string> RunCorpus(bool member_index) {
  EnterpriseSimulator::Options sopts;
  sopts.num_workstations = 2;
  sopts.duration = 15 * kMinute;
  sopts.events_per_host_per_second = 6;
  sopts.attack_offset = 6 * kMinute;
  sopts.include_attack = true;
  sopts.seed = 20200227;
  EnterpriseSimulator sim(sopts);
  auto source = sim.MakeSource();

  SaqlEngine::Options eopts;
  eopts.enable_member_index = member_index;
  SaqlEngine engine(eopts);
  for (const auto& [name, file] : kCorpusQueries) {
    Status st = engine.AddQuery(testing::ReadQueryFile(file), name);
    EXPECT_TRUE(st.ok()) << name << ": " << st;
  }
  Status st = engine.Run(source.get());
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(engine.errors().ToString(), "(no errors)");
  std::vector<std::string> alerts;
  for (const Alert& a : engine.alerts()) alerts.push_back(a.ToString());
  return alerts;
}

TEST(ConstraintIndexDiffTest, CheckedInCorpusIndexOnOff) {
  std::vector<std::string> baseline = RunCorpus(false);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(RunCorpus(true), baseline);
}

}  // namespace
}  // namespace saql
