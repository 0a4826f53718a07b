#include "analysis/query_analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "analysis/dataflow.h"
#include "core/like_matcher.h"
#include "core/string_util.h"
#include "core/time_util.h"
#include "parser/analyzer.h"

namespace saql {

FieldId CanonicalEntityFieldId(EntityType type, FieldId id) {
  if (id != FieldId::kName) return id;
  switch (type) {
    case EntityType::kProcess:
      return FieldId::kExeName;
    case EntityType::kFile:
      return FieldId::kPath;
    case EntityType::kNetwork:
      return id;  // analyzer rejects `name` on network entities
  }
  return id;
}

namespace {

// ---------------------------------------------------------------------------
// Constraint normalization
// ---------------------------------------------------------------------------

/// One AST constraint resolved against its scope: entity constraints carry
/// the entity-typed FieldId (with the polymorphic `name` spelling lowered to
/// the concrete attribute), global constraint lines the whole-event FieldId.
struct NormConstraint {
  const AttrConstraint* ast = nullptr;
  FieldId field = FieldId::kInvalid;
  bool from_global = false;  ///< mapped from a global constraint line
};

/// Lowers the polymorphic `name` attribute to the entity's concrete field so
/// `p1[name = "a"]` and `p1[exe_name = "b"]` land in one satisfiability
/// group.
FieldId CanonicalEntityField(EntityType type, FieldId id) {
  return CanonicalEntityFieldId(type, id);
}

/// Maps a global `subject_*` / `object_*` passthrough field to the entity
/// role and entity-typed attribute it reads. Returns kInvalid when `id` is
/// not a passthrough (agentid, amount, ...).
FieldId PassthroughEntityField(FieldId id, EntityRole* role) {
  switch (id) {
    case FieldId::kSubjectExeName:
      *role = EntityRole::kSubject;
      return FieldId::kExeName;
    case FieldId::kSubjectPid:
      *role = EntityRole::kSubject;
      return FieldId::kPid;
    case FieldId::kSubjectUser:
      *role = EntityRole::kSubject;
      return FieldId::kUser;
    case FieldId::kObjectExeName:
      *role = EntityRole::kObject;
      return FieldId::kExeName;
    case FieldId::kObjectPid:
      *role = EntityRole::kObject;
      return FieldId::kPid;
    case FieldId::kObjectUser:
      *role = EntityRole::kObject;
      return FieldId::kUser;
    case FieldId::kObjectPath:
      *role = EntityRole::kObject;
      return FieldId::kPath;
    case FieldId::kObjectName:
      *role = EntityRole::kObject;
      return FieldId::kName;
    case FieldId::kObjectSrcIp:
      *role = EntityRole::kObject;
      return FieldId::kSrcIp;
    case FieldId::kObjectDstIp:
      *role = EntityRole::kObject;
      return FieldId::kDstIp;
    case FieldId::kObjectSrcPort:
      *role = EntityRole::kObject;
      return FieldId::kSrcPort;
    case FieldId::kObjectDstPort:
      *role = EntityRole::kObject;
      return FieldId::kDstPort;
    case FieldId::kObjectProtocol:
      *role = EntityRole::kObject;
      return FieldId::kProtocol;
    default:
      return FieldId::kInvalid;
  }
}

/// True when the entity type carries the (canonical) attribute at all —
/// constraints on missing attributes evaluate to false for every event.
bool EntityHasField(EntityType type, FieldId id) {
  switch (type) {
    case EntityType::kProcess:
      return id == FieldId::kExeName || id == FieldId::kPid ||
             id == FieldId::kUser || id == FieldId::kName;
    case EntityType::kFile:
      return id == FieldId::kPath || id == FieldId::kName;
    case EntityType::kNetwork:
      return id == FieldId::kSrcIp || id == FieldId::kDstIp ||
             id == FieldId::kSrcPort || id == FieldId::kDstPort ||
             id == FieldId::kProtocol;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Satisfiability over one (scope, field) conjunction
// ---------------------------------------------------------------------------

struct Contradiction {
  std::string why;
  SourceSpan span;
  bool involves_global = false;
};

std::string Describe(const NormConstraint& c) {
  std::string out = "`" + c.ast->ToString() + "`";
  if (c.from_global) out += " (global constraint)";
  return out;
}

Contradiction MakeContradiction(const NormConstraint& a,
                                const NormConstraint& b,
                                const std::string& detail) {
  Contradiction out;
  out.why = Describe(a) + " contradicts " + Describe(b) + detail;
  // Anchor on the non-global constraint when only one side is global so the
  // span stays inside the pattern being diagnosed.
  const NormConstraint& anchor = a.from_global && !b.from_global ? b : a;
  const NormConstraint& other = (&anchor == &a) ? b : a;
  out.span = anchor.ast->span;
  if (anchor.from_global == other.from_global) {
    out.span = SourceSpan::Cover(anchor.ast->span, other.ast->span);
  }
  out.involves_global = a.from_global || b.from_global;
  return out;
}

/// Pairwise refutation for two string constraints. Conservative: returns a
/// contradiction only for provable cases (two different exact values; an
/// exact value a LIKE pattern rejects); pattern-vs-pattern is left alone.
std::optional<std::string> RefuteStringPair(ConstraintOp op_a,
                                            const std::string& va,
                                            ConstraintOp op_b,
                                            const std::string& vb) {
  LikeMatcher ma(va);
  LikeMatcher mb(vb);
  if (op_a == ConstraintOp::kEq && op_b == ConstraintOp::kEq) {
    if (ma.is_exact() && mb.is_exact() && !AsciiCaseEqual(va, vb)) {
      return ": no value equals both";
    }
    if (ma.is_exact() && !mb.is_exact() && !mb.Matches(va)) {
      return ": the pattern rejects the required value";
    }
    if (!ma.is_exact() && mb.is_exact() && !ma.Matches(vb)) {
      return ": the pattern rejects the required value";
    }
    return std::nullopt;
  }
  // eq V vs ne W with V == W (exact on both sides).
  if (op_a == ConstraintOp::kEq && op_b == ConstraintOp::kNe &&
      ma.is_exact() && mb.is_exact() && AsciiCaseEqual(va, vb)) {
    return ": requires and excludes the same value";
  }
  if (op_a == ConstraintOp::kNe && op_b == ConstraintOp::kEq &&
      ma.is_exact() && mb.is_exact() && AsciiCaseEqual(va, vb)) {
    return ": requires and excludes the same value";
  }
  return std::nullopt;
}

/// Satisfiability of the numeric constraints in one group by interval
/// intersection over the reals (conservative for integer attributes: `x > 3
/// && x < 4` is treated as satisfiable).
std::optional<Contradiction> RefuteNumeric(
    const std::vector<const NormConstraint*>& cs) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_strict = false, hi_strict = false;
  const NormConstraint* lo_src = nullptr;
  const NormConstraint* hi_src = nullptr;
  const NormConstraint* eq_src = nullptr;
  double eq_val = 0;

  auto numeric = [](const NormConstraint* c) {
    return c->ast->value.is_int() ? static_cast<double>(c->ast->value.AsInt())
                                  : c->ast->value.AsFloat();
  };

  for (const NormConstraint* c : cs) {
    double v = numeric(c);
    switch (c->ast->op) {
      case ConstraintOp::kEq:
        if (eq_src != nullptr && eq_val != v) {
          return MakeContradiction(*eq_src, *c, ": no value equals both");
        }
        eq_src = c;
        eq_val = v;
        break;
      case ConstraintOp::kNe:
        break;  // handled against eq below
      case ConstraintOp::kLt:
        if (v < hi || (v == hi && !hi_strict)) {
          hi = v;
          hi_strict = true;
          hi_src = c;
        }
        break;
      case ConstraintOp::kLe:
        if (v < hi) {
          hi = v;
          hi_strict = false;
          hi_src = c;
        }
        break;
      case ConstraintOp::kGt:
        if (v > lo || (v == lo && !lo_strict)) {
          lo = v;
          lo_strict = true;
          lo_src = c;
        }
        break;
      case ConstraintOp::kGe:
        if (v > lo) {
          lo = v;
          lo_strict = false;
          lo_src = c;
        }
        break;
    }
  }

  if (lo_src != nullptr && hi_src != nullptr &&
      (lo > hi || (lo == hi && (lo_strict || hi_strict)))) {
    return MakeContradiction(*lo_src, *hi_src, ": empty numeric range");
  }
  if (eq_src != nullptr) {
    if (lo_src != nullptr &&
        (eq_val < lo || (eq_val == lo && lo_strict))) {
      return MakeContradiction(*eq_src, *lo_src,
                               ": the required value is out of range");
    }
    if (hi_src != nullptr &&
        (eq_val > hi || (eq_val == hi && hi_strict))) {
      return MakeContradiction(*eq_src, *hi_src,
                               ": the required value is out of range");
    }
    for (const NormConstraint* c : cs) {
      if (c->ast->op == ConstraintOp::kNe && numeric(c) == eq_val) {
        return MakeContradiction(*eq_src, *c,
                                 ": requires and excludes the same value");
      }
    }
  }
  return std::nullopt;
}

/// Finds a provable contradiction within one (scope, field) conjunction, or
/// nullopt when the conjunction may be satisfiable.
std::optional<Contradiction> FindContradiction(
    const std::vector<NormConstraint>& group) {
  // String pairs.
  for (size_t i = 0; i < group.size(); ++i) {
    if (!group[i].ast->value.is_string()) continue;
    for (size_t j = i + 1; j < group.size(); ++j) {
      if (!group[j].ast->value.is_string()) continue;
      std::optional<std::string> why = RefuteStringPair(
          group[i].ast->op, group[i].ast->value.AsString(),
          group[j].ast->op, group[j].ast->value.AsString());
      if (why.has_value()) {
        return MakeContradiction(group[i], group[j], *why);
      }
    }
  }
  // Numeric interval.
  std::vector<const NormConstraint*> numeric;
  for (const NormConstraint& c : group) {
    if (c.ast->value.is_numeric()) numeric.push_back(&c);
  }
  if (numeric.size() >= 2) return RefuteNumeric(numeric);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Schema envelope: which ops make sense against each object type
// ---------------------------------------------------------------------------

/// Operations the collection schema can emit against an object of `type`
/// (matches the simulator and the op comments in core/event.h). A pattern
/// whose op alternation intersects none of these can never receive an event.
OpMask PlausibleOps(EntityType type) {
  switch (type) {
    case EntityType::kProcess:
      return OpBit(EventOp::kStart) | OpBit(EventOp::kExecute) |
             OpBit(EventOp::kKill);
    case EntityType::kFile:
      return OpBit(EventOp::kRead) | OpBit(EventOp::kWrite) |
             OpBit(EventOp::kDelete) | OpBit(EventOp::kRename) |
             OpBit(EventOp::kChmod) | OpBit(EventOp::kExecute);
    case EntityType::kNetwork:
      return OpBit(EventOp::kRead) | OpBit(EventOp::kWrite) |
             OpBit(EventOp::kConnect) | OpBit(EventOp::kAccept) |
             OpBit(EventOp::kSend) | OpBit(EventOp::kRecv);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Individual passes
// ---------------------------------------------------------------------------

void Emit(std::vector<Diagnostic>* out, const char* code, Severity severity,
          SourceSpan span, std::string message, std::string fix_hint = "") {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.span = span;
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  out->push_back(std::move(d));
}

/// Normalized per-role constraint groups of one pattern, keyed by the
/// canonical entity FieldId.
using FieldGroups = std::map<FieldId, std::vector<NormConstraint>>;

FieldGroups GroupEntityConstraints(const EntityPattern& entity) {
  FieldGroups groups;
  for (const AttrConstraint& c : entity.constraints) {
    FieldId id = ResolveEntityFieldId(entity.type, c.field);
    if (id == FieldId::kInvalid) continue;  // analyzer already rejected
    NormConstraint nc;
    nc.ast = &c;
    nc.field = CanonicalEntityField(entity.type, id);
    groups[nc.field].push_back(nc);
  }
  return groups;
}

/// SA001 within each pattern role and within the global constraint line set;
/// SA002 when merging a pattern's constraints with the global passthroughs
/// (or when a global passthrough reads an attribute the pattern's object
/// type lacks) refutes the pattern.
void CheckSatisfiability(const Query& q, std::vector<Diagnostic>* out) {
  // Global whole-event conjunction on its own.
  FieldGroups global_groups;
  for (const AttrConstraint& c : q.global_constraints) {
    FieldId id = ResolveEventFieldId(c.field);
    if (id == FieldId::kInvalid) continue;
    NormConstraint nc;
    nc.ast = &c;
    nc.field = id;
    global_groups[id].push_back(nc);
  }
  for (const auto& [field, group] : global_groups) {
    if (group.size() < 2) continue;
    std::optional<Contradiction> hit = FindContradiction(group);
    if (hit.has_value()) {
      Emit(out, "SA001", Severity::kError, hit->span,
           "unsatisfiable global constraints: " + hit->why,
           "drop or relax one of the constraints");
      return;  // one witness is enough; the query is already rejected
    }
  }

  // Per-pattern, per-role conjunctions, own constraints only (SA001) and
  // merged with the mapped global passthroughs (SA002).
  for (size_t pi = 0; pi < q.patterns.size(); ++pi) {
    const EventPatternDecl& decl = q.patterns[pi];
    for (EntityRole role : {EntityRole::kSubject, EntityRole::kObject}) {
      const EntityPattern& entity =
          role == EntityRole::kSubject ? decl.subject : decl.object;
      FieldGroups groups = GroupEntityConstraints(entity);
      bool own_unsat = false;
      for (const auto& [field, group] : groups) {
        if (group.size() < 2) continue;
        std::optional<Contradiction> hit = FindContradiction(group);
        if (hit.has_value()) {
          Emit(out, "SA001", Severity::kError, hit->span,
               "unsatisfiable constraints on " + entity.var + ": " + hit->why,
               "drop or relax one of the constraints");
          own_unsat = true;
          break;
        }
      }
      if (own_unsat) continue;

      // Merge in the global passthrough constraints that read this role.
      bool merged_any = false;
      for (const AttrConstraint& c : q.global_constraints) {
        FieldId event_id = ResolveEventFieldId(c.field);
        EntityRole target_role;
        FieldId entity_id = PassthroughEntityField(event_id, &target_role);
        if (entity_id == FieldId::kInvalid || target_role != role) continue;
        entity_id = CanonicalEntityField(entity.type, entity_id);
        if (!EntityHasField(entity.type, entity_id)) {
          Emit(out, "SA002", Severity::kError, decl.span,
               "pattern `" + decl.ToString() +
                   "` can never match: global constraint `" + c.ToString() +
                   "` reads attribute '" + c.field + "', which " +
                   EntityTypeName(entity.type) +
                   " objects do not carry, so the constraint is false for "
                   "every event this pattern accepts",
               "scope the constraint to the patterns whose object type "
               "carries the attribute");
          merged_any = false;
          break;
        }
        NormConstraint nc;
        nc.ast = &c;
        nc.field = entity_id;
        nc.from_global = true;
        groups[entity_id].push_back(nc);
        merged_any = true;
      }
      if (!merged_any) continue;
      for (const auto& [field, group] : groups) {
        if (group.size() < 2) continue;
        std::optional<Contradiction> hit = FindContradiction(group);
        if (hit.has_value() && hit->involves_global) {
          Emit(out, "SA002", Severity::kError, hit->span,
               "pattern `" + decl.ToString() +
                   "` can never match: " + hit->why,
               "reconcile the pattern with the global constraint");
          break;
        }
      }
    }
  }
}

/// SA003: the pattern's op alternation intersects no operation the schema
/// emits against its object type.
void CheckSchemaEnvelope(const Query& q, std::vector<Diagnostic>* out) {
  for (const EventPatternDecl& decl : q.patterns) {
    OpMask plausible = PlausibleOps(decl.object.type);
    if ((decl.ops & plausible) != 0) continue;
    Emit(out, "SA003", Severity::kWarning, decl.span,
         "dead pattern: no collector emits `" + OpMaskToString(decl.ops) +
             "` against a " + std::string(EntityTypeName(decl.object.type)) +
             " object, so `" + decl.ToString() + "` never receives an event",
         "use an operation the object type supports (" +
             OpMaskToString(plausible) + ")");
  }
}

/// SA010: window shorter than the 1 s event-time granularity, or a slide
/// that skips past the window it slides.
void CheckWindow(const Query& q, std::vector<Diagnostic>* out) {
  if (!q.window.has_value()) return;
  const WindowSpec& w = *q.window;
  if (w.kind != WindowSpec::Kind::kTime) return;
  if (w.length < kSecond) {
    Emit(out, "SA010", Severity::kWarning, w.span,
         "vacuous window: " + w.ToString() +
             " is shorter than the 1 s event-time granularity, so most "
             "windows hold at most one event",
         "use a window of at least one second");
  }
  if (w.slide > 0 && w.slide > w.length) {
    Emit(out, "SA010", Severity::kWarning, w.span,
         "gapped window: slide " + FormatDuration(w.slide) +
             " exceeds the window length " + FormatDuration(w.length) +
             ", so events between successive windows are never evaluated",
         "use a slide no longer than the window");
  }
}

bool IsConstantExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kUnary:
      return e.lhs != nullptr && IsConstantExpr(*e.lhs);
    case ExprKind::kBinary:
      return e.lhs != nullptr && e.rhs != nullptr && IsConstantExpr(*e.lhs) &&
             IsConstantExpr(*e.rhs);
    default:
      return false;
  }
}

/// SA011: aggregates whose every argument is a constant; SA012: invariant
/// model trained over an ungrouped state block.
void CheckAggregates(const Query& q, std::vector<Diagnostic>* out) {
  if (q.state.has_value()) {
    for (const StateField& f : q.state->fields) {
      if (f.expr == nullptr || f.expr->kind != ExprKind::kCall) continue;
      std::string callee = ToLower(f.expr->callee);
      if (!IsAggregateFunction(callee)) continue;
      if (f.expr->args.empty()) continue;
      bool all_const = true;
      for (const ExprPtr& a : f.expr->args) {
        if (!IsConstantExpr(*a)) {
          all_const = false;
          break;
        }
      }
      if (!all_const) continue;
      std::string detail =
          callee == "count_distinct" || callee == "set"
              ? " — over a constant it can only ever hold one value"
              : " — the aggregate reduces to a function of the event count";
      Emit(out, "SA011", Severity::kWarning, f.expr->span,
           "aggregate `" + f.expr->ToString() +
               "` is computed over a constant" + detail,
           "aggregate an event or entity attribute instead");
    }
  }
  if (q.invariant.has_value() && q.state.has_value() &&
      q.state->group_by.empty()) {
    Emit(out, "SA012", Severity::kWarning,
         SourceSpan{q.invariant->loc, q.invariant->loc},
         "invariant model is trained over an empty group key: all windows "
         "feed one global model, so per-entity anomalies wash out",
         "add `group by <entity>` to the state block");
  }
}

/// SA020: predicates that accept everything (`%`-only LIKE patterns,
/// duplicated constraints); SA021: constant alert conditions.
void CheckRedundancy(const Query& q, std::vector<Diagnostic>* out) {
  auto check_entity = [&](const EntityPattern& entity) {
    for (size_t i = 0; i < entity.constraints.size(); ++i) {
      const AttrConstraint& c = entity.constraints[i];
      if (c.op == ConstraintOp::kEq && c.value.is_string()) {
        const std::string& v = c.value.AsString();
        if (!v.empty() &&
            v.find_first_not_of('%') == std::string::npos) {
          Emit(out, "SA020", Severity::kHint, c.span,
               "`" + c.ToString() + "` matches every value",
               "drop the constraint");
        }
      }
      for (size_t j = i + 1; j < entity.constraints.size(); ++j) {
        const AttrConstraint& d = entity.constraints[j];
        if (c.field == d.field && c.op == d.op && c.value.Equals(d.value)) {
          Emit(out, "SA020", Severity::kHint, d.span,
               "duplicate constraint `" + d.ToString() + "`",
               "drop the repeated constraint");
        }
      }
    }
  };
  for (const EventPatternDecl& decl : q.patterns) {
    check_entity(decl.subject);
    check_entity(decl.object);
  }
  if (q.alert != nullptr && IsConstantExpr(*q.alert)) {
    bool truthy =
        q.alert->kind == ExprKind::kLiteral && q.alert->literal.Truthy();
    Emit(out, "SA021", Severity::kHint, q.alert->span,
         std::string("alert condition is constant") +
             (q.alert->kind == ExprKind::kLiteral
                  ? (truthy ? " (always fires)" : " (never fires)")
                  : ""),
         "alert on a computed value, or drop the clause to alert on every "
         "match");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Lint driver
// ---------------------------------------------------------------------------

std::vector<Diagnostic> QueryAnalysis::Lint(const CompiledQuery& query) {
  std::vector<Diagnostic> out;
  const Query& q = *query.analyzed().query;

  CheckSatisfiability(q, &out);
  CheckSchemaEnvelope(q, &out);
  CheckWindow(q, &out);
  CheckAggregates(q, &out);
  CheckRedundancy(q, &out);
  RunDataflowChecks(query.analyzed(), &out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) <
                            static_cast<int>(b.severity);
                   });
  return out;
}

}  // namespace saql
