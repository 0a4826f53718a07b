// Edge-case properties of the shared member-matching ConstraintIndex:
// duplicate and contradictory constraints, empty conjunctions, un-interned
// and rotated-generation events, case-normalization agreement between
// Interner symbols and LikeMatcher exact matches, and the allocation-free
// guarantee of the exact-equality un-interned fallback.

#include "engine/constraint_index.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/interner.h"
#include "engine/compiled_query.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

using testing::BindQueries;
using testing::BitAt;
using testing::BruteForceMatches;
using testing::CompileQuery;

/// Asserts index agreement with brute force for every member on `event`.
void ExpectAgreement(const ConstraintIndex& index,
                     const std::vector<CompiledQuery*>& members,
                     const Event& event, const char* label) {
  ConstraintIndex::MatchResult result;
  index.Match(event, &result);
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(BitAt(result.matched, i), BruteForceMatches(*members[i], event))
        << label << " member " << i;
  }
}

Event NetWrite(const std::string& exe, const std::string& ip) {
  return EventBuilder()
      .At(kSecond)
      .OnHost("h1")
      .Subject(exe, 1234)
      .Op(EventOp::kWrite)
      .NetObject(ip)
      .Build();
}

TEST(ConstraintIndexPropertyTest, DuplicateConstraintsShareOneSlot) {
  // Three members, all testing the same exact subject equality (one also
  // duplicates it inside its own conjunction): the index must collapse
  // them into a single slot and still match each member correctly.
  auto q1 = CompileQuery("proc p[exe_name = \"a.exe\"] write ip i as e return p",
                    "q1");
  auto q2 = CompileQuery("proc p[exe_name = \"A.EXE\"] write ip i as e return p",
                    "q2");  // case variant: same predicate
  auto q3 = CompileQuery(
      "proc p[exe_name = \"a.exe\", exe_name = \"a.exe\"] write ip i as e "
      "return p",
      "q3");
  std::vector<CompiledQuery*> members = {q1.get(), q2.get(), q3.get()};
  Interner interner;
  BindQueries(members, interner);
  auto index = ConstraintIndex::Build(members);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_slots(), 1u);
  EXPECT_EQ(index->total_constraints(), 4u);
  EXPECT_EQ(index->num_probe_slots(), 1u);

  for (bool intern : {false, true}) {
    Event hit = NetWrite("a.exe", "1.1.1.1");
    Event miss = NetWrite("b.exe", "1.1.1.1");
    if (intern) {
      InternEventSpan(interner, &hit, 1);
      InternEventSpan(interner, &miss, 1);
    }
    ExpectAgreement(*index, members, hit, intern ? "hit/int" : "hit/raw");
    ExpectAgreement(*index, members, miss, intern ? "miss/int" : "miss/raw");
    ConstraintIndex::MatchResult r;
    index->Match(hit, &r);
    EXPECT_EQ(r.matched[0], 0b111u);
    index->Match(miss, &r);
    EXPECT_EQ(r.matched[0], 0u);
  }
}

TEST(ConstraintIndexPropertyTest, ContradictoryConjunctionNeverMatches) {
  // Two exact equalities on the same field cannot both hold; the probe
  // group refutes the member whichever value the event carries. Numeric
  // contradictions must behave the same through residual slots.
  auto q1 = CompileQuery(
      "proc p[exe_name = \"a.exe\", exe_name = \"b.exe\"] write ip i as e "
      "return p",
      "q1");
  auto q2 = CompileQuery("proc p[pid > 100, pid <= 50] write ip i as e return p",
                    "q2");
  auto q3 = CompileQuery("proc p[exe_name = \"a.exe\"] write ip i as e return p",
                    "q3");
  std::vector<CompiledQuery*> members = {q1.get(), q2.get(), q3.get()};
  Interner interner;
  BindQueries(members, interner);
  auto index = ConstraintIndex::Build(members);
  ASSERT_NE(index, nullptr);
  for (bool intern : {false, true}) {
    for (const char* exe : {"a.exe", "b.exe", "c.exe"}) {
      Event e = NetWrite(exe, "1.1.1.1");
      if (intern) InternEventSpan(interner, &e, 1);
      ConstraintIndex::MatchResult r;
      index->Match(e, &r);
      EXPECT_FALSE(BitAt(r.matched, 0)) << exe;  // eq contradiction
      EXPECT_FALSE(BitAt(r.matched, 1)) << exe;  // numeric contradiction
      ExpectAgreement(*index, members, e, exe);
    }
  }
}

TEST(ConstraintIndexPropertyTest, EmptyConjunctionMatchesEverything) {
  auto q1 = CompileQuery("proc p write ip i as e return p", "q1");
  auto q2 = CompileQuery("proc p[exe_name = \"a.exe\"] write ip i as e return p",
                    "q2");
  std::vector<CompiledQuery*> members = {q1.get(), q2.get()};
  auto index = ConstraintIndex::Build(members);
  ASSERT_NE(index, nullptr);
  Event e = NetWrite("whatever.exe", "9.9.9.9");
  ConstraintIndex::MatchResult r;
  index->Match(e, &r);
  EXPECT_TRUE(BitAt(r.matched, 0));
  EXPECT_FALSE(BitAt(r.matched, 1));
}

TEST(ConstraintIndexPropertyTest, NotIndexableShapes) {
  // Multi-pattern members route through the multievent matcher: no index.
  auto multi = CompileQuery(
      "proc p1 start proc p2 as e1\n"
      "proc p2 write ip i as e2\n"
      "with e1 -> e2\n"
      "return p1",
      "multi");
  auto single = CompileQuery("proc p write ip i as e return p", "single");
  std::vector<CompiledQuery*> both = {multi.get(), single.get()};
  EXPECT_EQ(ConstraintIndex::Build(both), nullptr);
  // Fewer than two members: nothing to share.
  std::vector<CompiledQuery*> one = {single.get()};
  EXPECT_EQ(ConstraintIndex::Build(one), nullptr);
}

TEST(ConstraintIndexPropertyTest, RotatedGenerationEventsReinternAndAgree) {
  // Events interned before an Interner::Rotate carry stale symbol ids.
  // The documented lifecycle — re-intern event buffers (InternEventSpan
  // re-interns stale generations) and recompile queries after rotating —
  // must restore exact index/brute agreement.
  EventBatch events;
  events.push_back(NetWrite("a.exe", "1.1.1.1"));
  events.push_back(NetWrite("b.exe", "1.1.1.1"));
  Interner interner;
  InternEventSpan(interner, events.data(), events.size());

  interner.Rotate();
  // Recompile after rotation (compiled constraints capture symbol ids).
  auto q1 = CompileQuery("proc p[exe_name = \"a.exe\"] write ip i as e return p",
                    "q1");
  auto q2 = CompileQuery("proc p[user = \"u\"] write ip i as e return p", "q2");
  std::vector<CompiledQuery*> members = {q1.get(), q2.get()};
  BindQueries(members, interner);
  auto index = ConstraintIndex::Build(members);
  ASSERT_NE(index, nullptr);

  // Stale-generation buffers re-intern in place, as the executor would.
  InternEventSpan(interner, events.data(), events.size());
  EXPECT_EQ(events[0].syms.gen, interner.generation());
  ConstraintIndex::MatchResult r;
  index->Match(events[0], &r);
  EXPECT_TRUE(BitAt(r.matched, 0));
  index->Match(events[1], &r);
  EXPECT_FALSE(BitAt(r.matched, 0));
  for (const Event& e : events) {
    ExpectAgreement(*index, members, e, "post-rotation");
  }
}

TEST(ConstraintIndexPropertyTest, CaseNormalizationAgreesWithLikeMatcher) {
  // Interned symbol comparison and the LikeMatcher string fallback must
  // make the same case-insensitive decision for exact eq and ne, so an
  // event matches identically whether or not it was interned.
  auto eq = CompileQuery("proc p[exe_name = \"CMD.exe\"] write ip i as e return p",
                    "eq");
  auto ne = CompileQuery("proc p[exe_name != \"cmd.EXE\"] write ip i as e return p",
                    "ne");
  std::vector<CompiledQuery*> members = {eq.get(), ne.get()};
  Interner interner;
  BindQueries(members, interner);
  auto index = ConstraintIndex::Build(members);
  ASSERT_NE(index, nullptr);
  for (const char* exe : {"cmd.exe", "CMD.EXE", "CmD.exE", "cmd.exe2"}) {
    Event raw = NetWrite(exe, "1.1.1.1");
    Event interned = raw;
    InternEventSpan(interner, &interned, 1);
    ConstraintIndex::MatchResult r_raw, r_int;
    index->Match(raw, &r_raw);
    index->Match(interned, &r_int);
    EXPECT_EQ(r_raw.matched[0], r_int.matched[0]) << exe;
    ExpectAgreement(*index, members, raw, exe);
    ExpectAgreement(*index, members, interned, exe);
  }
}

TEST(ConstraintIndexPropertyTest,
     ExactEqUninternedFallbackDoesNotAllocate) {
  // Satellite fix pin: exact string equality on an event whose symbols
  // were never interned falls back to the LikeMatcher string path — that
  // path (and the whole index walk) must stay allocation-free, exactly
  // like LikeMatcherTest.MatchesDoesNotAllocate.
  CompiledConstraint subj_eq("exe_name", ConstraintOp::kEq,
                             Value("cmd.exe"), EntityType::kProcess);
  CompiledConstraint file_eq("name", ConstraintOp::kEq,
                             Value("/data/f1"), EntityType::kFile);
  CompiledConstraint agent_eq("agentid", ConstraintOp::kEq,
                              Value("host1"));
  Event e = EventBuilder()
                .At(kSecond)
                .OnHost("HOST1")
                .Subject("CMD.EXE", 7)
                .Op(EventOp::kWrite)
                .FileObject("/data/F1")
                .Build();
  ASSERT_EQ(e.syms.agent, Interner::kUnset);  // never interned

  // Warm up any lazy internals, then measure.
  ASSERT_TRUE(subj_eq.MatchesEntity(e, EntityRole::kSubject));
  ASSERT_TRUE(file_eq.MatchesEntity(e, EntityRole::kObject));
  ASSERT_TRUE(agent_eq.MatchesEvent(e));
  size_t hits = 0;
  size_t before = testing::HeapAllocs();
  for (int i = 0; i < 1000; ++i) {
    hits += subj_eq.MatchesEntity(e, EntityRole::kSubject);
    hits += file_eq.MatchesEntity(e, EntityRole::kObject);
    hits += agent_eq.MatchesEvent(e);
  }
  size_t after = testing::HeapAllocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(hits, 3000u);

  // The index walk over un-interned events is allocation-free too, once
  // its result scratch has warmed up.
  auto q1 = CompileQuery("proc p[exe_name = \"cmd.exe\"] write file f as ev "
                    "return p",
                    "q1");
  auto q2 = CompileQuery("proc p[exe_name = \"other.exe\"] write file f as ev "
                    "return p",
                    "q2");
  std::vector<CompiledQuery*> members = {q1.get(), q2.get()};
  Interner interner;
  BindQueries(members, interner);
  auto index = ConstraintIndex::Build(members);
  ASSERT_NE(index, nullptr);
  ConstraintIndex::MatchResult r;
  index->Match(e, &r);  // warm-up sizes the bitsets
  before = testing::HeapAllocs();
  for (int i = 0; i < 1000; ++i) index->Match(e, &r);
  after = testing::HeapAllocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(BitAt(r.matched, 0));
  EXPECT_FALSE(BitAt(r.matched, 1));
}

}  // namespace
}  // namespace saql
