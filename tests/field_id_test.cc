// The compiled field-access layer: FieldId resolution must agree with the
// string-keyed path for every valid spelling, interning must give equality
// predicates exact symbol semantics, and an analyzed query must evaluate
// through the fast path only (zero string-keyed lookups per event).

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/field_access.h"
#include "core/interner.h"
#include "engine/compiled_pattern.h"
#include "engine/engine.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

Event SampleEvent(EntityType object_type) {
  EventBuilder b;
  b.Id(42)
      .At(55 * kSecond)
      .OnHost("Host-1")
      .Subject("CMD.exe", 123)
      .Op(EventOp::kWrite)
      .Amount(999);
  switch (object_type) {
    case EntityType::kProcess:
      b.ProcObject("Child.exe", 456);
      break;
    case EntityType::kFile:
      b.FileObject("C:\\Data\\File.txt");
      break;
    case EntityType::kNetwork:
      b.NetObject("6.6.6.6", 443);
      break;
  }
  Event e = b.Build();
  e.subject.user = "SYSTEM";
  e.obj_proc.user = "alice";
  return e;
}

/// Every valid spelling per entity type (including aliases).
const char* const kProcessFields[] = {"exe_name", "name", "image", "pid",
                                      "user"};
const char* const kFileFields[] = {"name", "path"};
const char* const kNetworkFields[] = {"srcip", "src_ip", "sip",
                                      "dstip", "dst_ip", "dip",
                                      "sport", "src_port", "dport",
                                      "dst_port", "port", "protocol",
                                      "proto"};

TEST(FieldIdTest, EntityResolutionAgreesWithStringPathForEveryField) {
  struct Case {
    EntityType type;
    const char* const* fields;
    size_t count;
  };
  const Case cases[] = {
      {EntityType::kProcess, kProcessFields, std::size(kProcessFields)},
      {EntityType::kFile, kFileFields, std::size(kFileFields)},
      {EntityType::kNetwork, kNetworkFields, std::size(kNetworkFields)},
  };
  for (const Case& c : cases) {
    Event e = SampleEvent(c.type);
    for (size_t i = 0; i < c.count; ++i) {
      const std::string field = c.fields[i];
      FieldId id = ResolveEntityFieldId(c.type, field);
      ASSERT_NE(id, FieldId::kInvalid)
          << EntityTypeName(c.type) << "." << field;
      // Object role reads the entity of type c.type.
      Result<Value> by_name = GetEntityField(e, EntityRole::kObject, field);
      Result<Value> by_id = GetEntityField(e, EntityRole::kObject, id);
      ASSERT_TRUE(by_name.ok()) << field;
      ASSERT_TRUE(by_id.ok()) << field;
      EXPECT_TRUE(by_name->Equals(*by_id))
          << EntityTypeName(c.type) << "." << field << ": "
          << by_name->ToString() << " vs " << by_id->ToString();
    }
  }
  // Subject role (always a process).
  Event e = SampleEvent(EntityType::kFile);
  for (const char* field : kProcessFields) {
    FieldId id = ResolveEntityFieldId(EntityType::kProcess, field);
    Result<Value> by_name = GetEntityField(e, EntityRole::kSubject, field);
    Result<Value> by_id = GetEntityField(e, EntityRole::kSubject, id);
    ASSERT_TRUE(by_name.ok() && by_id.ok()) << field;
    EXPECT_TRUE(by_name->Equals(*by_id)) << field;
  }
}

TEST(FieldIdTest, EventResolutionAgreesWithStringPathForEveryField) {
  const char* const kEventFields[] = {
      "amount", "ts", "time", "timestamp", "agentid", "agent_id", "host",
      "op", "operation", "failed", "id",
      "subject_exe_name", "subject_name", "subject_image", "subject_pid",
      "subject_user"};
  for (EntityType type :
       {EntityType::kProcess, EntityType::kFile, EntityType::kNetwork}) {
    Event e = SampleEvent(type);
    for (const char* field : kEventFields) {
      FieldId id = ResolveEventFieldId(field);
      ASSERT_NE(id, FieldId::kInvalid) << field;
      Result<Value> by_name = GetEventField(e, field);
      Result<Value> by_id = GetEventField(e, id);
      ASSERT_TRUE(by_name.ok() && by_id.ok()) << field;
      EXPECT_TRUE(by_name->Equals(*by_id)) << field;
    }
  }
  // object_* passthroughs against the matching object type.
  struct ObjCase {
    EntityType type;
    const char* field;
  };
  const ObjCase obj_cases[] = {
      {EntityType::kProcess, "object_exe_name"},
      {EntityType::kProcess, "object_name"},
      {EntityType::kProcess, "object_pid"},
      {EntityType::kProcess, "object_user"},
      {EntityType::kFile, "object_name"},
      {EntityType::kFile, "object_path"},
      {EntityType::kNetwork, "object_srcip"},
      {EntityType::kNetwork, "object_dstip"},
      {EntityType::kNetwork, "object_sport"},
      {EntityType::kNetwork, "object_dport"},
      {EntityType::kNetwork, "object_protocol"},
  };
  for (const ObjCase& c : obj_cases) {
    Event e = SampleEvent(c.type);
    FieldId id = ResolveEventFieldId(c.field);
    ASSERT_NE(id, FieldId::kInvalid) << c.field;
    Result<Value> by_name = GetEventField(e, c.field);
    Result<Value> by_id = GetEventField(e, id);
    ASSERT_TRUE(by_name.ok() && by_id.ok()) << c.field;
    EXPECT_TRUE(by_name->Equals(*by_id)) << c.field;
  }
}

TEST(FieldIdTest, InvalidSpellingsStayInvalid) {
  EXPECT_EQ(ResolveEntityFieldId(EntityType::kProcess, "dstip"),
            FieldId::kInvalid);
  EXPECT_EQ(ResolveEntityFieldId(EntityType::kFile, "pid"),
            FieldId::kInvalid);
  EXPECT_EQ(ResolveEntityFieldId(EntityType::kNetwork, "exe_name"),
            FieldId::kInvalid);
  EXPECT_EQ(ResolveEventFieldId("bogus"), FieldId::kInvalid);
  EXPECT_EQ(ResolveEventFieldId("subject_dstip"), FieldId::kInvalid);
}

TEST(FieldIdTest, TypeMismatchedReadsReportNotFound) {
  Event e = SampleEvent(EntityType::kFile);
  // dstip of a file object: both paths must fail identically.
  Result<Value> by_name = GetEntityField(e, EntityRole::kObject, "dstip");
  Result<Value> by_id =
      GetEntityField(e, EntityRole::kObject, FieldId::kDstIp);
  EXPECT_FALSE(by_name.ok());
  EXPECT_FALSE(by_id.ok());
  EXPECT_EQ(by_name.status().code(), by_id.status().code());
}

TEST(InternerTest, CaseVariantsShareOneSymbol) {
  Interner interner;
  uint32_t a = interner.Intern("CMD.exe");
  uint32_t b = interner.Intern("cmd.EXE");
  uint32_t c = interner.Intern("cmd.exe");
  EXPECT_NE(a, Interner::kUnset);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(interner.NameOf(a), "cmd.exe");
  EXPECT_NE(interner.Intern("other.exe"), a);
  EXPECT_EQ(interner.Find("CMD.EXE"), a);
}

TEST(InternerTest, InternEventStringsFillsSlotsPerObjectType) {
  Interner interner;
  Event proc_evt = SampleEvent(EntityType::kProcess);
  InternEventSpan(interner, &proc_evt, 1);
  EXPECT_NE(proc_evt.syms.agent, 0u);
  EXPECT_NE(proc_evt.syms.subj_exe, 0u);
  EXPECT_NE(proc_evt.syms.subj_user, 0u);
  EXPECT_NE(proc_evt.syms.obj_exe, 0u);
  EXPECT_NE(proc_evt.syms.obj_user, 0u);
  EXPECT_EQ(proc_evt.syms.obj_path, 0u);

  Event file_evt = SampleEvent(EntityType::kFile);
  InternEventSpan(interner, &file_evt, 1);
  EXPECT_NE(file_evt.syms.obj_path, 0u);
  EXPECT_EQ(file_evt.syms.obj_exe, 0u);

  // Same exe name (case-insensitively) → same symbol.
  EXPECT_EQ(proc_evt.syms.subj_exe, file_evt.syms.subj_exe);
  EXPECT_EQ(GetEntitySymbol(interner, file_evt, EntityRole::kSubject,
                            FieldId::kExeName),
            file_evt.syms.subj_exe);
}

/// The memo slots of `EventSymbols`, in declaration order.
constexpr uint32_t EventSymbols::*kSymbolSlots[] = {
    &EventSymbols::agent,    &EventSymbols::subj_exe, &EventSymbols::subj_user,
    &EventSymbols::obj_exe,  &EventSymbols::obj_user, &EventSymbols::obj_path,
};

size_t FilledSlots(const EventSymbols& syms) {
  size_t n = 0;
  for (auto slot : kSymbolSlots) n += syms.*slot != 0 ? 1 : 0;
  return n;
}

/// Network endpoint strings carry no symbol slot.
bool IsNetworkString(FieldId id) {
  switch (id) {
    case FieldId::kSrcIp:
    case FieldId::kDstIp:
    case FieldId::kProtocol:
    case FieldId::kObjectSrcIp:
    case FieldId::kObjectDstIp:
    case FieldId::kObjectProtocol:
      return true;
    default:
      return false;
  }
}

/// One lazy symbol read on a fresh event, checked against the eager stamp
/// (`InternEventSpan`) of a copy: the read returns the eager id of the
/// attribute's own spelling and fills exactly one slot, or returns 0 and
/// fills none when the attribute carries no symbol. A second read is a
/// memo hit: same id, no interner entry, no allocation.
void CheckLazyRead(EntityType type, const std::string& label,
                   const std::string* spelling, bool network_string,
                   const std::function<uint32_t(Interner&, const Event&)>&
                       read) {
  SCOPED_TRACE(label);
  Interner interner;
  Event eager = SampleEvent(type);
  InternEventSpan(interner, &eager, 1);
  Event lazy = SampleEvent(type);
  const uint32_t id = read(interner, lazy);
  if (spelling == nullptr || network_string) {
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(FilledSlots(lazy.syms), 0u);
    EXPECT_EQ(lazy.syms.gen, 0u);
    return;
  }
  ASSERT_NE(id, 0u);
  EXPECT_EQ(id, interner.Find(*spelling));
  EXPECT_EQ(lazy.syms.gen, eager.syms.gen);
  ASSERT_EQ(FilledSlots(lazy.syms), 1u);
  for (auto slot : kSymbolSlots) {
    if (lazy.syms.*slot != 0) {
      EXPECT_EQ(lazy.syms.*slot, eager.syms.*slot);
    }
  }
  const size_t entries = interner.size();
  const size_t allocs = testing::HeapAllocs();
  const uint32_t again = read(interner, lazy);
  EXPECT_EQ(testing::HeapAllocs(), allocs);
  EXPECT_EQ(interner.size(), entries);
  EXPECT_EQ(again, id);
  EXPECT_EQ(FilledSlots(lazy.syms), 1u);
}

TEST(InternerTest, LazyReadFillsExactlyItsSlotForEveryField) {
  const EntityType kTypes[] = {EntityType::kProcess, EntityType::kFile,
                               EntityType::kNetwork};
  for (EntityType type : kTypes) {
    const Event sample = SampleEvent(type);
    for (int raw = static_cast<int>(FieldId::kExeName);
         raw <= static_cast<int>(FieldId::kName); ++raw) {
      const FieldId id = static_cast<FieldId>(raw);
      for (EntityRole role : {EntityRole::kSubject, EntityRole::kObject}) {
        CheckLazyRead(
            type,
            "entity field " + std::to_string(raw) + " role " +
                std::to_string(static_cast<int>(role)) + " type " +
                std::to_string(static_cast<int>(type)),
            GetEntityStringFieldPtr(sample, role, id), IsNetworkString(id),
            [&](Interner& interner, const Event& e) {
              return GetEntitySymbol(interner, e, role, id);
            });
      }
    }
    for (int raw = static_cast<int>(FieldId::kAmount);
         raw <= static_cast<int>(FieldId::kObjectProtocol); ++raw) {
      const FieldId id = static_cast<FieldId>(raw);
      CheckLazyRead(type,
                    "event field " + std::to_string(raw) + " type " +
                        std::to_string(static_cast<int>(type)),
                    GetEventStringFieldPtr(sample, id), IsNetworkString(id),
                    [&](Interner& interner, const Event& e) {
                      return GetEventSymbol(interner, e, id);
                    });
    }
  }
}

TEST(InternerTest, LazyReadAfterRotationRefreshesTheMemo) {
  Interner interner;
  Event e = SampleEvent(EntityType::kFile);
  ASSERT_NE(GetEventSymbol(interner, e, FieldId::kAgentId), 0u);
  ASSERT_NE(GetEntitySymbol(interner, e, EntityRole::kObject, FieldId::kPath),
            0u);
  const uint32_t gen_before = e.syms.gen;
  ASSERT_EQ(FilledSlots(e.syms), 2u);

  interner.Rotate();
  const uint32_t exe = GetEntitySymbol(interner, e, EntityRole::kSubject,
                                       FieldId::kExeName);
  EXPECT_EQ(e.syms.gen, interner.generation());
  EXPECT_NE(e.syms.gen, gen_before);
  EXPECT_EQ(exe, interner.Find("cmd.exe"));
  EXPECT_NE(exe, 0u);
  // The stale agent and path ids are gone, not mixed into the new memo.
  EXPECT_EQ(e.syms.agent, 0u);
  EXPECT_EQ(e.syms.obj_path, 0u);
  EXPECT_EQ(FilledSlots(e.syms), 1u);
  // Re-reading a cleared slot interns it under the current generation.
  const uint32_t agent = GetEventSymbol(interner, e, FieldId::kAgentId);
  EXPECT_EQ(agent, interner.Find("host-1"));
  EXPECT_NE(agent, 0u);
  EXPECT_EQ(FilledSlots(e.syms), 2u);
}

TEST(InternerTest, ExactEqualityMatchesInternedAndPlainEventsAlike) {
  // Exact constraint → symbol compare on interned events, string fallback
  // otherwise; both must agree with LIKE semantics (case-insensitive).
  // An unbound constraint compares strings; a bound one compares symbols.
  Interner interner;
  CompiledConstraint c("exe_name", ConstraintOp::kEq, Value("cmd.exe"),
                       EntityType::kProcess);
  Event e = SampleEvent(EntityType::kFile);  // subject CMD.exe
  EXPECT_TRUE(c.MatchesEntity(e, EntityRole::kSubject));
  c.ReIntern(interner);
  EXPECT_NE(c.symbol(), Interner::kUnset);
  InternEventSpan(interner, &e, 1);
  EXPECT_TRUE(c.MatchesEntity(e, EntityRole::kSubject));

  CompiledConstraint miss("exe_name", ConstraintOp::kEq, Value("other.exe"),
                          EntityType::kProcess);
  miss.ReIntern(interner);
  EXPECT_FALSE(miss.MatchesEntity(e, EntityRole::kSubject));

  CompiledConstraint ne("exe_name", ConstraintOp::kNe, Value("other.exe"),
                        EntityType::kProcess);
  ne.ReIntern(interner);
  EXPECT_TRUE(ne.MatchesEntity(e, EntityRole::kSubject));

  CompiledConstraint agent("agentid", ConstraintOp::kEq, Value("host-1"));
  agent.ReIntern(interner);
  EXPECT_TRUE(agent.MatchesEvent(e));
}

TEST(FieldIdFastPathTest, AnalyzedQueriesDoZeroStringKeyedLookupsPerEvent) {
  // A mix of every per-event evaluation feature: entity + global
  // constraints, multi-pattern matching, aggregates over entity/event
  // refs, entity and event-alias group keys, alert + return expressions.
  SaqlEngine engine;
  ASSERT_TRUE(engine
                  .AddQuery("agentid = \"h1\" "
                            "proc a[\"%cmd.exe\"] start proc b as e1 "
                            "proc c write file f[\"%.dmp\"] as e2 "
                            "with e1 -> e2 "
                            "alert e2.amount >= 0 "
                            "return distinct a, b, f, e2.amount",
                            "rule")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("proc p write ip i as e #time(5 s) "
                            "state ss { amt := sum(e.amount) "
                            "           n := count() } "
                            "group by p, e.agentid "
                            "alert ss.amt > 0 return p, ss.amt, ss.n",
                            "stateful")
                  .ok());
  EventBatch events;
  for (int i = 0; i < 20; ++i) {
    Timestamp ts = i * kSecond;
    events.push_back(EventBuilder()
                         .At(ts)
                         .OnHost("h1")
                         .Subject("cmd.exe", 7)
                         .Op(EventOp::kStart)
                         .ProcObject("osql.exe", 8)
                         .Build());
    events.push_back(EventBuilder()
                         .At(ts + kSecond / 4)
                         .OnHost("h1")
                         .Subject("sqlservr.exe", 9)
                         .Op(EventOp::kWrite)
                         .FileObject("C:\\backup1.dmp")
                         .Amount(100)
                         .Build());
    events.push_back(EventBuilder()
                         .At(ts + kSecond / 2)
                         .OnHost("h1")
                         .Subject("svc.exe", 10)
                         .Op(EventOp::kWrite)
                         .NetObject("1.2.3.4")
                         .Amount(50)
                         .Build());
  }
  VectorEventSource source(std::move(events));

  ResetStringKeyedFieldLookups();
  ASSERT_TRUE(engine.Run(&source).ok());
  EXPECT_EQ(StringKeyedFieldLookups(), 0u)
      << "per-event evaluation fell back to string-keyed field access";

  // The run actually exercised the paths we claim are compiled.
  ASSERT_FALSE(engine.alerts().empty());
  auto stats = engine.query_stats();
  EXPECT_GT(stats[0].second.matches, 0u);
  EXPECT_GT(stats[1].second.matches, 0u);
}

}  // namespace
}  // namespace saql
