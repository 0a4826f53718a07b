#include "core/interner.h"

#include "core/field_access.h"
#include "core/string_util.h"

namespace saql {

namespace {

constexpr size_t kInitialCapacity = 1024;  // power of two
constexpr size_t kMaxLoadNum = 7;          // grow above 7/10 occupancy
constexpr size_t kMaxLoadDen = 10;

}  // namespace

Interner::Table::Table(size_t capacity_pow2)
    : capacity(capacity_pow2),
      mask(capacity_pow2 - 1),
      slots(new std::atomic<Entry*>[capacity_pow2]) {
  for (size_t i = 0; i < capacity; ++i) {
    slots[i].store(nullptr, std::memory_order_relaxed);
  }
}

Interner& Interner::Global() {
  static Interner* instance = new Interner();
  return *instance;
}

Interner::Interner() : table_(new Table(kInitialCapacity)) {
  sentinel_.name = "";  // id 0 = kUnset, never assigned
  by_id_.push_back(&sentinel_);
}

Interner::~Interner() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 1; i < by_id_.size(); ++i) delete by_id_[i];
  delete table_.load(std::memory_order_relaxed);
  for (Retired& r : retired_) {
    for (Entry* e : r.entries) delete e;
  }
}

const Interner::Entry* Interner::Probe(const Table* t, std::string_view s,
                                       size_t hash) const {
  for (size_t i = hash & t->mask;; i = (i + 1) & t->mask) {
    const Entry* e = t->slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return nullptr;
    if (e->hash == hash && AsciiCaseEqual(e->name, s)) return e;
  }
}

void Interner::InsertLocked(Table* t, Entry* e) {
  for (size_t i = e->hash & t->mask;; i = (i + 1) & t->mask) {
    if (t->slots[i].load(std::memory_order_relaxed) == nullptr) {
      // Release: a lock-free reader that sees the pointer sees the entry.
      t->slots[i].store(e, std::memory_order_release);
      return;
    }
  }
}

void Interner::GrowLocked() {
  Table* old = table_.load(std::memory_order_relaxed);
  auto grown = std::make_unique<Table>(old->capacity * 2);
  for (size_t i = 1; i < by_id_.size(); ++i) {
    InsertLocked(grown.get(), by_id_[i]);
  }
  table_.store(grown.release(), std::memory_order_release);
  // The outgrown slot array may still be probed by in-flight readers:
  // retire it (entries are shared with the new table and stay live).
  Retired r;
  r.generation = generation_.load(std::memory_order_relaxed);
  r.table.reset(old);
  retired_.push_back(std::move(r));
}

uint32_t Interner::Intern(std::string_view s) {
  const size_t hash = AsciiCaseHash(s);
  if (const Entry* e =
          Probe(table_.load(std::memory_order_acquire), s, hash)) {
    return e->id;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Re-probe under the lock: another writer (or a rotation) may have
  // changed the table since the lock-free miss.
  Table* t = table_.load(std::memory_order_relaxed);
  if (const Entry* e = Probe(t, s, hash)) return e->id;
  if ((by_id_.size() + 1) * kMaxLoadDen > t->capacity * kMaxLoadNum) {
    GrowLocked();
    t = table_.load(std::memory_order_relaxed);
  }
  Entry* e = new Entry();
  e->name = ToLower(s);
  e->hash = hash;
  e->id = static_cast<uint32_t>(by_id_.size());
  by_id_.push_back(e);
  bytes_.fetch_add(e->name.size(), std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  InsertLocked(t, e);
  return e->id;
}

uint32_t Interner::InternStamped(std::string_view s,
                                 uint64_t* generation_out) {
  for (;;) {
    const uint64_t gen = generation();
    uint32_t id = Intern(s);
    // A rotation between the generation read and the insert would hand
    // out an id from a different generation than reported: retry until
    // the pair is consistent (rotations are rare; one retry suffices in
    // practice).
    if (generation() == gen) {
      if (generation_out != nullptr) *generation_out = gen;
      return id;
    }
  }
}

uint32_t Interner::Find(std::string_view s) const {
  const Entry* e =
      Probe(table_.load(std::memory_order_acquire), s, AsciiCaseHash(s));
  return e == nullptr ? kUnset : e->id;
}

const std::string& Interner::NameOf(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_[id]->name;
}

size_t Interner::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_.size();
}

Interner::Stats Interner::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats st;
  st.entries = entries_.load(std::memory_order_relaxed);
  st.bytes = bytes_.load(std::memory_order_relaxed);
  st.generation = generation();
  st.retired_bytes = retired_bytes_;
  return st;
}

void Interner::Rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  Retired r;
  r.generation = generation_.load(std::memory_order_relaxed);
  r.table.reset(table_.load(std::memory_order_relaxed));
  r.entries.assign(by_id_.begin() + 1, by_id_.end());
  r.bytes = bytes_.load(std::memory_order_relaxed);
  retired_bytes_ += r.bytes;
  retired_.push_back(std::move(r));

  by_id_.clear();
  by_id_.push_back(&sentinel_);
  bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  // Publish the fresh table before bumping the generation: a reader that
  // observes the new generation is then guaranteed to probe the new
  // table, so a consistent (generation, id) pair can always be obtained
  // by re-checking the generation after the probe (InternStamped).
  table_.store(new Table(kInitialCapacity), std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

size_t Interner::ReclaimBefore(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  std::vector<Retired> keep;
  for (Retired& r : retired_) {
    if (r.generation < generation) {
      for (Entry* e : r.entries) delete e;
      freed += r.bytes;
    } else {
      keep.push_back(std::move(r));
    }
  }
  retired_ = std::move(keep);
  retired_bytes_ -= freed;
  return freed;
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

void InternEventStrings(Event* event) {
  // A rotation between two reads clears the slots read before it; read
  // again (rare) until one generation covers every slot.
  do {
    GetEventSymbol(*event, FieldId::kAgentId);
    GetEventSymbol(*event, FieldId::kSubjectExeName);
    GetEventSymbol(*event, FieldId::kSubjectUser);
    GetEventSymbol(*event, FieldId::kObjectExeName);
    GetEventSymbol(*event, FieldId::kObjectUser);
    GetEventSymbol(*event, FieldId::kObjectPath);
  } while (!SymbolsComplete(*event, event->syms.gen));
}

}  // namespace

void InternEventSpan(Event* events, size_t count) {
  Interner& interner = Interner::Global();
  for (size_t i = 0; i < count; ++i) {
    if (!SymbolsComplete(events[i],
                         static_cast<uint32_t>(interner.generation()))) {
      InternEventStrings(&events[i]);
    }
  }
}

}  // namespace saql
