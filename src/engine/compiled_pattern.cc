#include "engine/compiled_pattern.h"

#include "core/interner.h"
#include "core/string_util.h"

namespace saql {

CompiledConstraint::CompiledConstraint(std::string field, ConstraintOp op,
                                       Value value)
    : field_(std::move(field)), op_(op), value_(std::move(value)) {
  field_id_ = ResolveEventFieldId(field_);
  CompileValue();
}

CompiledConstraint::CompiledConstraint(std::string field, ConstraintOp op,
                                       Value value, EntityType entity_type)
    : field_(std::move(field)), op_(op), value_(std::move(value)) {
  field_id_ = ResolveEntityFieldId(entity_type, field_);
  CompileValue();
}

void CompiledConstraint::CompileValue() {
  if (value_.is_string() &&
      (op_ == ConstraintOp::kEq || op_ == ConstraintOp::kNe)) {
    like_.emplace(value_.AsString());
  }
}

void CompiledConstraint::ReIntern(Interner& interner) {
  interner_ = &interner;
  // Wildcard-free equality: capture the expected symbol so events compare
  // ids, not strings. The generation stamp gates the fast path, so ids of
  // two tables, or of two eras of one, are never compared.
  if (like_.has_value() && like_->is_exact()) {
    sym_ = interner.Intern(value_.AsString());
    sym_gen_ = interner.generation();
  }
}

bool CompiledConstraint::CompareResolved(const Value& actual) const {
  if (actual.is_null()) return false;
  switch (op_) {
    case ConstraintOp::kEq:
      if (like_.has_value() && actual.is_string()) {
        return like_->Matches(actual.AsString());
      }
      return actual.Equals(value_);
    case ConstraintOp::kNe:
      if (like_.has_value() && actual.is_string()) {
        return !like_->Matches(actual.AsString());
      }
      return !actual.Equals(value_);
    case ConstraintOp::kLt:
    case ConstraintOp::kLe:
    case ConstraintOp::kGt:
    case ConstraintOp::kGe: {
      Result<int> c = actual.Compare(value_);
      if (!c.ok()) return false;
      switch (op_) {
        case ConstraintOp::kLt:
          return *c < 0;
        case ConstraintOp::kLe:
          return *c <= 0;
        case ConstraintOp::kGt:
          return *c > 0;
        default:
          return *c >= 0;
      }
    }
  }
  return false;
}

bool CompiledConstraint::CompareString(const std::string& actual) const {
  if (op_ == ConstraintOp::kEq) return like_->Matches(actual);
  return !like_->Matches(actual);
}

bool CompiledConstraint::MatchesEntity(const Event& event,
                                       EntityRole role) const {
  if (field_id_ == FieldId::kInvalid) {
    // Field unknown for the bound entity type (or unbound constraint from a
    // hand-built pattern): the string-keyed read reports NotFound → false.
    Result<Value> v = GetEntityField(event, role, field_);
    if (!v.ok()) return false;
    return CompareResolved(*v);
  }
  if (sym_ != 0) {
    // Read first: the read brings the event's memo to the current
    // generation, which is then the one to compare against.
    uint32_t actual = GetEntitySymbol(*interner_, event, role, field_id_);
    if (actual != 0 && event.syms.gen == sym_gen_) {
      return op_ == ConstraintOp::kEq ? actual == sym_ : actual != sym_;
    }
  }
  if (like_.has_value()) {
    if (const std::string* s =
            GetEntityStringFieldPtr(event, role, field_id_)) {
      return CompareString(*s);
    }
  }
  Result<Value> v = GetEntityField(event, role, field_id_);
  if (!v.ok()) return false;
  return CompareResolved(*v);
}

bool CompiledConstraint::MatchesEvent(const Event& event) const {
  if (field_id_ == FieldId::kInvalid) {
    Result<Value> v = GetEventField(event, field_);
    if (!v.ok()) return false;
    return CompareResolved(*v);
  }
  if (sym_ != 0) {
    // Read first: the read brings the event's memo to the current
    // generation, which is then the one to compare against.
    uint32_t actual = GetEventSymbol(*interner_, event, field_id_);
    if (actual != 0 && event.syms.gen == sym_gen_) {
      return op_ == ConstraintOp::kEq ? actual == sym_ : actual != sym_;
    }
  }
  if (like_.has_value()) {
    if (const std::string* s = GetEventStringFieldPtr(event, field_id_)) {
      return CompareString(*s);
    }
  }
  Result<Value> v = GetEventField(event, field_id_);
  if (!v.ok()) return false;
  return CompareResolved(*v);
}

CompiledPattern::CompiledPattern(const EventPatternDecl& decl)
    : ops_(decl.ops), object_type_(decl.object.type) {
  for (const AttrConstraint& c : decl.subject.constraints) {
    subject_constraints_.emplace_back(c.field, c.op, c.value,
                                      EntityType::kProcess);
  }
  for (const AttrConstraint& c : decl.object.constraints) {
    object_constraints_.emplace_back(c.field, c.op, c.value,
                                     decl.object.type);
  }
}

bool CompiledPattern::Matches(const Event& event) const {
  if (!StructuralMatch(event)) return false;
  for (const CompiledConstraint& c : subject_constraints_) {
    if (!c.MatchesEntity(event, EntityRole::kSubject)) return false;
  }
  for (const CompiledConstraint& c : object_constraints_) {
    if (!c.MatchesEntity(event, EntityRole::kObject)) return false;
  }
  return true;
}

void CompiledPattern::ReInternSymbols(Interner& interner) {
  for (CompiledConstraint& c : subject_constraints_) c.ReIntern(interner);
  for (CompiledConstraint& c : object_constraints_) c.ReIntern(interner);
}

std::string CompiledPattern::StructuralSignature() const {
  return std::string("proc|") + std::to_string(ops_) + "|" +
         EntityTypeName(object_type_);
}

std::string EntityKeyOf(const Event& event, EntityRole role) {
  if (role == EntityRole::kSubject) {
    return event.agent_id + "/p" + std::to_string(event.subject.pid);
  }
  switch (event.object_type) {
    case EntityType::kProcess:
      return event.agent_id + "/p" + std::to_string(event.obj_proc.pid);
    case EntityType::kFile:
      return event.agent_id + "/f" + ToLower(event.obj_file.path);
    case EntityType::kNetwork:
      return "n" + event.obj_net.dst_ip + ":" +
             std::to_string(event.obj_net.dst_port);
  }
  return "?";
}

}  // namespace saql
