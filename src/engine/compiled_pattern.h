#ifndef SAQL_ENGINE_COMPILED_PATTERN_H_
#define SAQL_ENGINE_COMPILED_PATTERN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/field_access.h"
#include "core/like_matcher.h"
#include "parser/ast.h"

namespace saql {

class Interner;

/// One compiled attribute predicate: `field op value`. Compilation
/// front-loads everything the per-event hot path would otherwise redo:
///  - the field name resolves to a `FieldId` (no string-keyed lookups),
///  - string equality pre-compiles to a `LikeMatcher`.
/// Compiling interns nothing. Once bound to a symbol table (`ReIntern`,
/// which a session calls when it wires the query), exact (wildcard-free)
/// equality on an interned attribute captures the expected symbol, so
/// matching is a 32-bit integer compare against the event's memo. An
/// unbound constraint compares strings, which gives the same answer.
class CompiledConstraint {
 public:
  /// Whole-event constraint (global constraint lines such as
  /// `agentid = server1`); the field resolves as an event attribute.
  CompiledConstraint(std::string field, ConstraintOp op, Value value);

  /// Entity constraint bound to the entity type it applies to.
  CompiledConstraint(std::string field, ConstraintOp op, Value value,
                     EntityType entity_type);

  /// Evaluates against the entity playing `role` in `event`.
  bool MatchesEntity(const Event& event, EntityRole role) const;

  /// Evaluates against a whole-event attribute (global constraints).
  bool MatchesEvent(const Event& event) const;

  const std::string& field() const { return field_; }
  FieldId field_id() const { return field_id_; }
  ConstraintOp op() const { return op_; }
  const Value& value() const { return value_; }
  /// Interned expected symbol; nonzero only for bound exact
  /// (wildcard-free) string eq/ne constraints.
  uint32_t symbol() const { return sym_; }
  /// Generation of the table `symbol()` was captured from. The integer
  /// fast path only fires when the event's memo carries the same
  /// generation; otherwise matching falls back to string comparison.
  uint32_t symbol_generation() const { return sym_gen_; }
  /// The table the constraint is bound to; nullptr until bound.
  Interner* interner() const { return interner_; }

  /// Binds the constraint to `interner` and captures the expected symbol
  /// under its current generation. The owner calls it again after every
  /// `Interner::Rotate` of that table.
  void ReIntern(Interner& interner);

 private:
  void CompileValue();

  bool CompareResolved(const Value& actual) const;
  bool CompareString(const std::string& actual) const;

  std::string field_;
  ConstraintOp op_;
  Value value_;
  std::optional<LikeMatcher> like_;  ///< set for string eq/ne constraints
  FieldId field_id_ = FieldId::kInvalid;
  Interner* interner_ = nullptr;  ///< the bound table; not owned
  uint32_t sym_ = 0;  ///< interned expected value for exact string equality
  uint32_t sym_gen_ = 0;  ///< generation sym_ was interned under
};

/// A fully compiled event pattern: structural shape (subject/object entity
/// types + operation mask) plus attribute constraints for both sides.
///
/// `StructuralMatch` is the cheap test the concurrent-query scheduler
/// shares across a query group; `Matches` adds the per-query constraints.
class CompiledPattern {
 public:
  explicit CompiledPattern(const EventPatternDecl& decl);

  /// Type/operation shape only.
  bool StructuralMatch(const Event& event) const {
    return OpMaskContains(ops_, event.op) &&
           event.object_type == object_type_;
  }

  /// Shape plus subject and object attribute constraints.
  bool Matches(const Event& event) const;

  OpMask ops() const { return ops_; }
  EntityType object_type() const { return object_type_; }
  const std::vector<CompiledConstraint>& subject_constraints() const {
    return subject_constraints_;
  }
  const std::vector<CompiledConstraint>& object_constraints() const {
    return object_constraints_;
  }

  /// A stable signature of the structural shape, used to group compatible
  /// queries ("proc|start|proc").
  std::string StructuralSignature() const;

  /// Binds every constraint to `interner` (see
  /// CompiledConstraint::ReIntern).
  void ReInternSymbols(Interner& interner);

 private:
  OpMask ops_;
  EntityType object_type_;
  std::vector<CompiledConstraint> subject_constraints_;
  std::vector<CompiledConstraint> object_constraints_;
};

/// Identity key of the entity playing `role` in `event`; shared pattern
/// variables (the paper's `f1` appearing in two patterns) require equal
/// keys. Processes are identified by (host, pid), files by (host, path),
/// network connections by their remote endpoint.
std::string EntityKeyOf(const Event& event, EntityRole role);

}  // namespace saql

#endif  // SAQL_ENGINE_COMPILED_PATTERN_H_
