#include "engine/constraint_index.h"

#include <string>
#include <unordered_map>

#include "core/interner.h"
#include "core/string_util.h"
#include "engine/compiled_query.h"

namespace saql {

namespace {

inline size_t WordsFor(size_t members) { return (members + 63) / 64; }

inline void SetBit(std::vector<uint64_t>* bits, size_t i) {
  (*bits)[i / 64] |= uint64_t{1} << (i % 64);
}

inline void AndNot(std::vector<uint64_t>* dst,
                   const std::vector<uint64_t>& clear) {
  for (size_t w = 0; w < dst->size(); ++w) (*dst)[w] &= ~clear[w];
}

inline bool Intersects(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  for (size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

/// True when (side, field) can carry an interned symbol — a slot the
/// symbol readers intern on first read — the condition for resolving exact
/// equality with one symbol probe. Must mirror GetEntitySymbol /
/// GetEventSymbol (core/field_access.cc).
bool SymbolCapable(ConstraintIndex::Side side, FieldId field) {
  switch (side) {
    case ConstraintIndex::Side::kSubject:
      return field == FieldId::kExeName || field == FieldId::kName ||
             field == FieldId::kUser;
    case ConstraintIndex::Side::kObject:
      return field == FieldId::kExeName || field == FieldId::kUser ||
             field == FieldId::kPath || field == FieldId::kName;
    case ConstraintIndex::Side::kEvent:
      switch (field) {
        case FieldId::kAgentId:
        case FieldId::kSubjectExeName:
        case FieldId::kSubjectUser:
        case FieldId::kObjectExeName:
        case FieldId::kObjectUser:
        case FieldId::kObjectPath:
        case FieldId::kObjectName:
          return true;
        default:
          return false;
      }
  }
  return false;
}

/// Identity of a predicate for cross-member deduplication. String values of
/// eq/ne constraints are lowered because SAQL string equality is
/// case-insensitive — `"CMD.exe"` and `"cmd.exe"` are the same predicate.
std::string SlotKey(ConstraintIndex::Side side, const CompiledConstraint& c) {
  std::string key;
  key += static_cast<char>('0' + static_cast<int>(side));
  key += static_cast<char>('0' + static_cast<int>(c.op()));
  key += static_cast<char>('0' + static_cast<int>(c.field_id()));
  if (c.field_id() == FieldId::kInvalid) {
    // Unresolved fields evaluate through their spelling; resolved ones go
    // entirely through the id, so aliases (`path` / `name`) share a slot.
    key += c.field();
  }
  key += '\x1f';
  key += static_cast<char>('0' + static_cast<int>(c.value().kind()));
  if (c.value().is_string() &&
      (c.op() == ConstraintOp::kEq || c.op() == ConstraintOp::kNe)) {
    key += ToLower(c.value().AsString());
  } else {
    key += c.value().ToString();
  }
  return key;
}

}  // namespace

std::unique_ptr<const ConstraintIndex> ConstraintIndex::Build(
    const std::vector<CompiledQuery*>& members) {
  if (members.size() < 2) return nullptr;  // nothing to share
  for (const CompiledQuery* q : members) {
    if (q->patterns().size() != 1) return nullptr;  // multievent matcher
  }

  std::unique_ptr<ConstraintIndex> index(new ConstraintIndex());
  index->num_members_ = members.size();
  const size_t words = WordsFor(members.size());
  index->all_members_.assign(words, 0);
  for (size_t i = 0; i < members.size(); ++i) {
    SetBit(&index->all_members_, i);
  }

  std::unordered_map<std::string, uint32_t> slot_ids;
  auto add = [&](size_t member, Side side, const CompiledConstraint& c) {
    ++index->total_constraints_;
    auto [it, inserted] =
        slot_ids.emplace(SlotKey(side, c), index->slots_.size());
    if (inserted) {
      index->slots_.push_back(Slot{c, side, std::vector<uint64_t>(words, 0)});
    }
    SetBit(&index->slots_[it->second].members, member);
  };
  for (size_t i = 0; i < members.size(); ++i) {
    for (const CompiledConstraint& c : members[i]->global_constraints()) {
      add(i, Side::kEvent, c);
    }
    const CompiledPattern& p = members[i]->patterns()[0];
    for (const CompiledConstraint& c : p.subject_constraints()) {
      add(i, Side::kSubject, c);
    }
    for (const CompiledConstraint& c : p.object_constraints()) {
      add(i, Side::kObject, c);
    }
  }

  // Classify: exact interned equality on a symbol-carrying field joins the
  // (side, field) probe group; everything else is a residual slot.
  std::unordered_map<uint32_t, size_t> probe_of;  // (side<<8|field) → index
  std::vector<ProbeGroup> probes;
  for (uint32_t s = 0; s < index->slots_.size(); ++s) {
    const Slot& slot = index->slots_[s];
    if (index->interner_ == nullptr && slot.constraint.symbol() != 0) {
      index->interner_ = slot.constraint.interner();  // the members' table
      index->built_gen_ = index->interner_->generation();
    }
    const bool probeable =
        slot.constraint.op() == ConstraintOp::kEq &&
        slot.constraint.symbol() != 0 &&
        // A symbol of another table, or of an older generation, would
        // probe against ids from the wrong era; such a slot stays
        // residual.
        slot.constraint.interner() == index->interner_ &&
        slot.constraint.symbol_generation() == index->built_gen_ &&
        slot.constraint.field_id() != FieldId::kInvalid &&
        SymbolCapable(slot.side, slot.constraint.field_id());
    if (!probeable) {
      if (slot.side == Side::kEvent) {
        index->global_residuals_.push_back(s);
      } else {
        index->entity_residuals_.push_back(s);
      }
      continue;
    }
    ++index->probe_slots_;
    uint32_t pk = (static_cast<uint32_t>(slot.side) << 8) |
                  static_cast<uint32_t>(slot.constraint.field_id());
    auto [it, inserted] = probe_of.emplace(pk, probes.size());
    if (inserted) {
      ProbeGroup g;
      g.side = slot.side;
      g.field = slot.constraint.field_id();
      g.all_members.assign(words, 0);
      probes.push_back(std::move(g));
    }
    ProbeGroup& g = probes[it->second];
    // Distinct slots in a group have distinct symbols by construction: the
    // dedup key lowers eq string values exactly like the interner does.
    g.pos_by_symbol.emplace(slot.constraint.symbol(),
                            static_cast<uint32_t>(g.slots.size()));
    g.slots.push_back(s);
    for (size_t w = 0; w < words; ++w) g.all_members[w] |= slot.members[w];
  }
  for (ProbeGroup& g : probes) {
    g.refuted_on_hit.resize(g.slots.size());
    for (size_t k = 0; k < g.slots.size(); ++k) {
      g.refuted_on_hit[k].assign(words, 0);
      for (size_t j = 0; j < g.slots.size(); ++j) {
        if (j == k) continue;
        const std::vector<uint64_t>& m = index->slots_[g.slots[j]].members;
        for (size_t w = 0; w < words; ++w) g.refuted_on_hit[k][w] |= m[w];
      }
    }
  }
  for (ProbeGroup& g : probes) {
    if (g.side == Side::kEvent) {
      index->global_probes_.push_back(std::move(g));
    } else {
      index->entity_probes_.push_back(std::move(g));
    }
  }
  return index;
}

bool ConstraintIndex::EvalSlot(const Slot& slot, const Event& event) const {
  switch (slot.side) {
    case Side::kEvent:
      return slot.constraint.MatchesEvent(event);
    case Side::kSubject:
      return slot.constraint.MatchesEntity(event, EntityRole::kSubject);
    case Side::kObject:
      return slot.constraint.MatchesEntity(event, EntityRole::kObject);
  }
  return false;
}

void ConstraintIndex::ApplyProbeGroup(const ProbeGroup& group,
                                      const Event& event,
                                      std::vector<uint64_t>* matched) const {
  if (!Intersects(group.all_members, *matched)) return;
  // Read first: the read interns the slot on first touch and brings the
  // event's memo to the current generation.
  uint32_t sym = group.side == Side::kEvent
                     ? GetEventSymbol(*interner_, event, group.field)
                     : GetEntitySymbol(*interner_, event,
                                       group.side == Side::kSubject
                                           ? EntityRole::kSubject
                                           : EntityRole::kObject,
                                       group.field);
  if (event.syms.gen != built_gen_) sym = 0;
  if (sym == 0) {
    // The field carries no symbol for this object type, or the index was
    // built under an older generation: fall back to the constraints' own
    // evaluation, which handles the string-compare path exactly like
    // brute force.
    for (uint32_t s : group.slots) {
      const Slot& slot = slots_[s];
      if (Intersects(slot.members, *matched) && !EvalSlot(slot, event)) {
        AndNot(matched, slot.members);
      }
    }
    return;
  }
  auto it = group.pos_by_symbol.find(sym);
  if (it == group.pos_by_symbol.end()) {
    // No member's expected value matches: refute every member that tests
    // this field for equality.
    AndNot(matched, group.all_members);
    return;
  }
  // Exactly one slot is satisfied; every member requiring any *other*
  // slot of this group is refuted (including members that also require
  // the hit slot — contradictory conjunctions).
  AndNot(matched, group.refuted_on_hit[it->second]);
}

void ConstraintIndex::ApplyResidual(const Slot& slot, const Event& event,
                                    std::vector<uint64_t>* matched) const {
  if (!Intersects(slot.members, *matched)) return;
  if (!EvalSlot(slot, event)) AndNot(matched, slot.members);
}

void ConstraintIndex::Match(const Event& event, MatchResult* result) const {
  result->matched = all_members_;
  for (const ProbeGroup& g : global_probes_) {
    ApplyProbeGroup(g, event, &result->matched);
  }
  for (uint32_t s : global_residuals_) {
    ApplyResidual(slots_[s], event, &result->matched);
  }
  result->passed_global = result->matched;
  for (const ProbeGroup& g : entity_probes_) {
    ApplyProbeGroup(g, event, &result->matched);
  }
  for (uint32_t s : entity_residuals_) {
    ApplyResidual(slots_[s], event, &result->matched);
  }
}

}  // namespace saql
