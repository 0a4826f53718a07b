#include "core/interner.h"

#include <atomic>

#include "core/field_access.h"
#include "core/string_util.h"

namespace saql {

namespace {

constexpr size_t kInitialCapacity = 1024;  // power of two
constexpr size_t kMaxLoadNum = 7;          // grow above 7/10 occupancy
constexpr size_t kMaxLoadDen = 10;

/// Draws a generation no table has had before (until the 32-bit counter
/// wraps), never 0. Touched only when a table is created or rotates.
uint32_t NextGeneration() {
  static std::atomic<uint32_t> counter{0};
  uint32_t gen;
  do {
    gen = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  } while (gen == 0);
  return gen;
}

}  // namespace

Interner::Interner()
    : table_(kInitialCapacity, kUnset),
      entries_(1),  // id 0 = kUnset, the empty spelling, never assigned
      generation_(NextGeneration()) {}

size_t Interner::Probe(std::string_view s, size_t hash) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t id = table_[i];
    if (id == kUnset) return i;
    const Entry& e = entries_[id];
    if (e.hash == hash && AsciiCaseEqual(e.name, s)) return i;
  }
}

void Interner::Grow() {
  table_.assign(table_.size() * 2, kUnset);
  const size_t mask = table_.size() - 1;
  for (uint32_t id = 1; id < entries_.size(); ++id) {
    size_t i = entries_[id].hash & mask;
    while (table_[i] != kUnset) i = (i + 1) & mask;
    table_[i] = id;
  }
}

uint32_t Interner::Intern(std::string_view s) {
  const size_t hash = AsciiCaseHash(s);
  size_t slot = Probe(s, hash);
  if (table_[slot] != kUnset) return table_[slot];
  if ((entries_.size() + 1) * kMaxLoadDen > table_.size() * kMaxLoadNum) {
    Grow();
    slot = Probe(s, hash);
  }
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{ToLower(s), hash});
  bytes_ += s.size();
  table_[slot] = id;
  return id;
}

uint32_t Interner::Find(std::string_view s) const {
  return table_[Probe(s, AsciiCaseHash(s))];
}

Interner::Stats Interner::stats() const {
  Stats st;
  st.entries = entries_.size() - 1;
  st.bytes = bytes_;
  st.generation = generation_;
  st.rotations = rotations_;
  return st;
}

void Interner::Rotate() {
  table_.assign(kInitialCapacity, kUnset);
  entries_.resize(1);
  bytes_ = 0;
  generation_ = NextGeneration();
  ++rotations_;
}

namespace {

/// True when every slot that applies to the event's object type is filled
/// under generation `gen`.
bool SymbolsComplete(const Event& event, uint32_t gen) {
  const EventSymbols& s = event.syms;
  if (s.gen != gen || s.agent == Interner::kUnset ||
      s.subj_exe == Interner::kUnset || s.subj_user == Interner::kUnset) {
    return false;
  }
  switch (event.object_type) {
    case EntityType::kProcess:
      return s.obj_exe != Interner::kUnset && s.obj_user != Interner::kUnset;
    case EntityType::kFile:
      return s.obj_path != Interner::kUnset;
    case EntityType::kNetwork:
      return true;
  }
  return false;
}

}  // namespace

void InternEventSpan(Interner& interner, Event* events, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    Event& e = events[i];
    if (SymbolsComplete(e, interner.generation())) continue;
    GetEventSymbol(interner, e, FieldId::kAgentId);
    GetEventSymbol(interner, e, FieldId::kSubjectExeName);
    GetEventSymbol(interner, e, FieldId::kSubjectUser);
    GetEventSymbol(interner, e, FieldId::kObjectExeName);
    GetEventSymbol(interner, e, FieldId::kObjectUser);
    GetEventSymbol(interner, e, FieldId::kObjectPath);
  }
}

void InternEventSpan(Event* events, size_t count) {
  Interner local;
  InternEventSpan(local, events, count);
}

}  // namespace saql
