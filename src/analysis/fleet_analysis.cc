#include "analysis/fleet_analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "analysis/query_analysis.h"
#include "core/like_matcher.h"
#include "core/string_util.h"

namespace saql {
namespace {

// ---------------------------------------------------------------------------
// Canonical constraint slots
// ---------------------------------------------------------------------------

/// One attribute constraint normalized the way the executor's
/// ConstraintIndex factors predicate slots: canonical FieldId (polymorphic
/// `name` lowered to the concrete attribute), operator, and a
/// representation-independent value (strings case-folded to match the
/// engine's case-insensitive LIKE semantics, numerics widened to double).
struct CanonConstraint {
  enum class Tag : uint8_t { kString, kNumber, kBool, kOther };

  FieldId field = FieldId::kInvalid;
  ConstraintOp op = ConstraintOp::kEq;
  Tag tag = Tag::kOther;
  std::string str;  ///< case-folded string / fallback rendering
  double num = 0;   ///< numeric / bool value

  /// Total-order key; equal keys ⇔ equal canonical constraints.
  std::string Key() const {
    char buf[360];
    std::snprintf(buf, sizeof(buf), "%d|%d|%d|%.17g|", static_cast<int>(field),
                  static_cast<int>(op), static_cast<int>(tag), num);
    return std::string(buf) + str;
  }
};

CanonConstraint MakeCanonConstraint(FieldId field, const AttrConstraint& c) {
  CanonConstraint out;
  out.field = field;
  out.op = c.op;
  if (c.value.is_string()) {
    out.tag = CanonConstraint::Tag::kString;
    out.str = ToLower(c.value.AsString());
  } else if (c.value.is_numeric()) {
    out.tag = CanonConstraint::Tag::kNumber;
    out.num = c.value.is_int() ? static_cast<double>(c.value.AsInt())
                               : c.value.AsFloat();
  } else if (c.value.is_bool()) {
    out.tag = CanonConstraint::Tag::kBool;
    out.num = c.value.AsBool() ? 1 : 0;
  } else {
    out.tag = CanonConstraint::Tag::kOther;
    out.str = c.value.ToString();
  }
  return out;
}

void SortByKey(std::vector<CanonConstraint>* v) {
  std::sort(v->begin(), v->end(),
            [](const CanonConstraint& a, const CanonConstraint& b) {
              return a.Key() < b.Key();
            });
}

bool SameConstraints(const std::vector<CanonConstraint>& a,
                     const std::vector<CanonConstraint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Key() != b[i].Key()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// String-pattern implication under case-insensitive LIKE
// ---------------------------------------------------------------------------

/// Shape of a LIKE pattern, mirroring LikeMatcher's fast-path taxonomy.
/// `kGeneral` covers `_` wildcards and interior `%` — no implication rules
/// beyond literal pattern equality apply there.
struct PatShape {
  enum class Kind { kExact, kPrefix, kSuffix, kContains, kAll, kGeneral };
  Kind kind = Kind::kGeneral;
  std::string needle;  ///< case-folded pattern without the edge `%`s
};

PatShape ClassifyPattern(const std::string& lowered) {
  PatShape out;
  if (!lowered.empty() &&
      lowered.find_first_not_of('%') == std::string::npos) {
    out.kind = PatShape::Kind::kAll;
    return out;
  }
  if (lowered.find('_') != std::string::npos) return out;  // kGeneral
  size_t begin = lowered.find_first_not_of('%');
  size_t end = lowered.find_last_not_of('%');
  if (begin == std::string::npos) {  // empty pattern: exact-matches ""
    out.kind = PatShape::Kind::kExact;
    return out;
  }
  out.needle = lowered.substr(begin, end - begin + 1);
  if (out.needle.find('%') != std::string::npos) return out;  // interior %
  bool lead = begin > 0;
  bool trail = end + 1 < lowered.size();
  out.kind = lead ? (trail ? PatShape::Kind::kContains : PatShape::Kind::kSuffix)
                  : (trail ? PatShape::Kind::kPrefix : PatShape::Kind::kExact);
  return out;
}

bool Contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

/// True when `x LIKE pa` provably implies `x LIKE pb` for every string `x`
/// (both patterns already case-folded; LIKE is case-insensitive).
bool LikeImplies(const std::string& pa, const std::string& pb) {
  PatShape a = ClassifyPattern(pa);
  PatShape b = ClassifyPattern(pb);
  if (b.kind == PatShape::Kind::kAll) return true;
  if (pa == pb) return true;
  // An exact left side pins x to one value — just test it against pb.
  if (a.kind == PatShape::Kind::kExact) return LikeMatcher(pb).Matches(a.needle);
  switch (b.kind) {
    case PatShape::Kind::kPrefix:
      return a.kind == PatShape::Kind::kPrefix &&
             StartsWith(a.needle, b.needle);
    case PatShape::Kind::kSuffix:
      return a.kind == PatShape::Kind::kSuffix && EndsWith(a.needle, b.needle);
    case PatShape::Kind::kContains:
      return (a.kind == PatShape::Kind::kPrefix ||
              a.kind == PatShape::Kind::kSuffix ||
              a.kind == PatShape::Kind::kContains) &&
             Contains(a.needle, b.needle);
    default:
      return false;
  }
}

/// True when `x LIKE pa` provably implies `x NOT LIKE pb`: the two pattern
/// languages are disjoint. Only the cheap certain cases are claimed.
bool LikeExcludes(const std::string& pa, const std::string& pb) {
  PatShape a = ClassifyPattern(pa);
  PatShape b = ClassifyPattern(pb);
  if (a.kind == PatShape::Kind::kExact) return !LikeMatcher(pb).Matches(a.needle);
  if (b.kind != PatShape::Kind::kExact) return false;
  // pb pins x to one value; disjoint iff that value is outside pa.
  switch (a.kind) {
    case PatShape::Kind::kPrefix:
      return !StartsWith(b.needle, a.needle);
    case PatShape::Kind::kSuffix:
      return !EndsWith(b.needle, a.needle);
    case PatShape::Kind::kContains:
      return !Contains(b.needle, a.needle);
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Single-constraint implication
// ---------------------------------------------------------------------------

/// True when constraint `b` holds for every attribute value satisfying `a`
/// (same canonical field). Conservative: false whenever unsure.
bool ConstraintImplies(const CanonConstraint& a, const CanonConstraint& b) {
  if (a.field != b.field || a.tag != b.tag) return false;
  using Op = ConstraintOp;
  switch (b.tag) {
    case CanonConstraint::Tag::kString:
      if (b.op == Op::kEq) {
        if (a.op == Op::kEq) return LikeImplies(a.str, b.str);
        return false;
      }
      if (b.op == Op::kNe) {
        if (a.op == Op::kNe) return a.str == b.str || LikeImplies(b.str, a.str);
        if (a.op == Op::kEq) return LikeExcludes(a.str, b.str);
        return false;
      }
      return false;  // ordered ops on strings: no claim
    case CanonConstraint::Tag::kNumber:
      switch (b.op) {
        case Op::kEq:
          return a.op == Op::kEq && a.num == b.num;
        case Op::kNe:
          return (a.op == Op::kEq && a.num != b.num) ||
                 (a.op == Op::kNe && a.num == b.num) ||
                 (a.op == Op::kLt && a.num <= b.num) ||
                 (a.op == Op::kLe && a.num < b.num) ||
                 (a.op == Op::kGt && a.num >= b.num) ||
                 (a.op == Op::kGe && a.num > b.num);
        case Op::kLt:
          return (a.op == Op::kLt && a.num <= b.num) ||
                 (a.op == Op::kLe && a.num < b.num) ||
                 (a.op == Op::kEq && a.num < b.num);
        case Op::kLe:
          return ((a.op == Op::kLe || a.op == Op::kLt) && a.num <= b.num) ||
                 (a.op == Op::kEq && a.num <= b.num);
        case Op::kGt:
          return (a.op == Op::kGt && a.num >= b.num) ||
                 (a.op == Op::kGe && a.num > b.num) ||
                 (a.op == Op::kEq && a.num > b.num);
        case Op::kGe:
          return ((a.op == Op::kGe || a.op == Op::kGt) && a.num >= b.num) ||
                 (a.op == Op::kEq && a.num >= b.num);
      }
      return false;
    case CanonConstraint::Tag::kBool:
      if (b.op == Op::kEq) return a.op == Op::kEq && a.num == b.num;
      if (b.op == Op::kNe) {
        return (a.op == Op::kEq && a.num != b.num) ||
               (a.op == Op::kNe && a.num == b.num);
      }
      return false;
    case CanonConstraint::Tag::kOther:
      return false;
  }
  return false;
}

/// True when `b` is trivially satisfied by every value (a match-all LIKE).
bool TriviallyTrue(const CanonConstraint& b) {
  return b.tag == CanonConstraint::Tag::kString && b.op == ConstraintOp::kEq &&
         ClassifyPattern(b.str).kind == PatShape::Kind::kAll;
}

/// True when holding all of `a` implies all of `b` (conjunction on each
/// side). Each `b` constraint must be trivially true or implied by some
/// single `a` constraint.
bool ConjunctionImplies(const std::vector<CanonConstraint>& a,
                        const std::vector<CanonConstraint>& b) {
  for (const CanonConstraint& cb : b) {
    if (TriviallyTrue(cb)) continue;
    bool implied = false;
    for (const CanonConstraint& ca : a) {
      if (ConstraintImplies(ca, cb)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Canonical query form
// ---------------------------------------------------------------------------

struct CanonPattern {
  EntityType subject_type = EntityType::kProcess;
  OpMask ops = 0;
  EntityType object_type = EntityType::kProcess;
  std::vector<CanonConstraint> subject;
  std::vector<CanonConstraint> object;
};

}  // namespace

struct CanonQuery {
  std::vector<CanonPattern> patterns;
  std::vector<CanonConstraint> globals;
  /// Variable-sharing partition: groups of (pattern, role) slots bound to
  /// one entity variable, groups of size >= 2 only, canonically ordered.
  std::vector<std::vector<std::pair<int, int>>> sharing;
  /// Everything else — temporal structure, window, state, invariant,
  /// cluster, alert, returns — rendered with resolved (name-free) refs.
  std::string shape;
  /// No state/invariant/cluster: alert-set containment follows from
  /// event-set containment, so SA051 subsumption claims are sound.
  bool stateless = false;
};

namespace {

/// Renders an expression with variable names erased: resolved refs print as
/// their (kind, index, role, field) coordinates, so alpha-renamed queries
/// produce identical text. Unresolved refs fall back to spelling.
std::string CanonExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return "L:" + e.literal.ToString();
    case ExprKind::kRef: {
      std::ostringstream os;
      switch (e.ref_kind) {
        case RefKind::kEntity:
          os << "E" << e.ref_index
             << (e.ref_role == EntityRole::kSubject ? 's' : 'o') << ":"
             << static_cast<int>(e.ref_field);
          break;
        case RefKind::kEvent:
          os << "V" << e.ref_index << ":" << static_cast<int>(e.ref_field);
          if (e.ref_field == FieldId::kInvalid) os << ":" << ToLower(e.field);
          break;
        case RefKind::kState:
          os << "S" << e.ref_index << "[" << e.history.value_or(0) << "]";
          break;
        case RefKind::kGroupKey:
          os << "G" << e.ref_index;
          break;
        case RefKind::kInvariant:
          os << "I" << e.ref_index;
          break;
        case RefKind::kCluster:
          os << "C." << ToLower(e.field);
          break;
        case RefKind::kUnresolved:
          os << "U:" << e.base;
          if (e.history.has_value()) os << "[" << *e.history << "]";
          if (!e.field.empty()) os << "." << e.field;
          break;
      }
      return os.str();
    }
    case ExprKind::kCall: {
      std::string out = ToLower(e.callee) + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ",";
        out += e.args[i] ? CanonExpr(*e.args[i]) : "?";
      }
      return out + ")";
    }
    case ExprKind::kBinary: {
      std::string l = e.lhs ? CanonExpr(*e.lhs) : "?";
      std::string r = e.rhs ? CanonExpr(*e.rhs) : "?";
      return "(" + l + " " + BinOpName(e.bin_op) + " " + r + ")";
    }
    case ExprKind::kUnary: {
      std::string operand = e.lhs ? CanonExpr(*e.lhs) : "?";
      return std::string(UnOpName(e.un_op)) + "(" + operand + ")";
    }
  }
  return "?";
}

std::vector<CanonConstraint> CanonEntityConstraints(const EntityPattern& ep) {
  std::vector<CanonConstraint> out;
  for (const AttrConstraint& c : ep.constraints) {
    FieldId id = ResolveEntityFieldId(ep.type, c.field);
    if (id == FieldId::kInvalid) continue;  // analyzer already rejected
    out.push_back(MakeCanonConstraint(CanonicalEntityFieldId(ep.type, id), c));
  }
  SortByKey(&out);
  return out;
}

CanonQuery Canonicalize(const AnalyzedQuery& aq) {
  const Query& q = *aq.query;
  CanonQuery out;
  out.stateless =
      !aq.IsStateful() && !aq.HasInvariant() && !aq.HasCluster();

  for (const EventPatternDecl& decl : q.patterns) {
    CanonPattern p;
    p.subject_type = decl.subject.type;
    p.ops = decl.ops;
    p.object_type = decl.object.type;
    p.subject = CanonEntityConstraints(decl.subject);
    p.object = CanonEntityConstraints(decl.object);
    out.patterns.push_back(std::move(p));
  }

  for (const AttrConstraint& c : q.global_constraints) {
    FieldId id = ResolveEventFieldId(c.field);
    if (id == FieldId::kInvalid) continue;
    out.globals.push_back(MakeCanonConstraint(id, c));
  }
  SortByKey(&out.globals);

  for (const auto& [var, bindings] : aq.entity_vars) {
    if (var.empty() || bindings.size() < 2) continue;
    std::vector<std::pair<int, int>> group;
    for (const EntityBinding& b : bindings) {
      group.emplace_back(b.pattern_index,
                         b.role == EntityRole::kSubject ? 0 : 1);
    }
    std::sort(group.begin(), group.end());
    group.erase(std::unique(group.begin(), group.end()), group.end());
    if (group.size() >= 2) out.sharing.push_back(std::move(group));
  }
  std::sort(out.sharing.begin(), out.sharing.end());

  std::ostringstream shape;
  shape << "tmp:";
  if (aq.ordered) {
    for (size_t i = 0; i < aq.temporal_order.size(); ++i) {
      if (i > 0) shape << ">";
      shape << aq.temporal_order[i];
      if (i < aq.temporal_gaps.size()) shape << "g" << aq.temporal_gaps[i];
    }
  } else {
    shape << "unordered";
  }
  shape << ";win:";
  if (q.window.has_value()) {
    if (q.window->kind == WindowSpec::Kind::kCount) {
      shape << "c" << q.window->count;
    } else {
      shape << "t" << q.window->length << "/" << q.window->EffectiveSlide();
    }
  } else {
    shape << "-";
  }
  shape << ";state:";
  if (q.state.has_value()) {
    shape << q.state->history << "{";
    for (size_t i = 0; i < q.state->fields.size(); ++i) {
      if (i > 0) shape << ";";
      const StateField& f = q.state->fields[i];
      shape << (f.expr ? CanonExpr(*f.expr) : "?");
    }
    shape << "}gb[";
    for (size_t i = 0; i < aq.group_keys.size(); ++i) {
      if (i > 0) shape << ",";
      const ResolvedGroupKey& k = aq.group_keys[i];
      shape << static_cast<int>(k.source) << "." << k.pattern_index << "."
            << ToLower(k.field);
    }
    shape << "]";
  } else {
    shape << "-";
  }
  shape << ";inv:";
  if (q.invariant.has_value()) {
    shape << q.invariant->training_windows
          << (q.invariant->offline ? "off" : "on") << "{";
    for (size_t i = 0; i < q.invariant->stmts.size(); ++i) {
      if (i > 0) shape << ";";
      const InvariantStmt& s = q.invariant->stmts[i];
      auto it = std::find(aq.invariant_vars.begin(), aq.invariant_vars.end(),
                          s.var);
      shape << "i" << (it - aq.invariant_vars.begin())
            << (s.is_init ? ":=" : "=") << (s.expr ? CanonExpr(*s.expr) : "?");
    }
    shape << "}";
  } else {
    shape << "-";
  }
  shape << ";clu:";
  if (q.cluster.has_value()) {
    shape << static_cast<int>(aq.cluster_method.kind) << ","
          << aq.cluster_method.eps << "," << aq.cluster_method.min_pts << ","
          << (aq.cluster_method.euclidean ? "ed" : "md") << "[";
    for (size_t i = 0; i < q.cluster->points.size(); ++i) {
      if (i > 0) shape << ",";
      shape << (q.cluster->points[i] ? CanonExpr(*q.cluster->points[i]) : "?");
    }
    shape << "]";
  } else {
    shape << "-";
  }
  shape << ";alert:" << (q.alert ? CanonExpr(*q.alert) : "-");
  shape << ";ret:" << (q.return_distinct ? "d" : "") << "[";
  for (size_t i = 0; i < q.returns.size(); ++i) {
    if (i > 0) shape << ",";
    shape << (q.returns[i].expr ? CanonExpr(*q.returns[i].expr) : "?");
  }
  shape << "]";
  out.shape = shape.str();
  return out;
}

// ---------------------------------------------------------------------------
// Pairwise relations
// ---------------------------------------------------------------------------

bool CanonEqual(const CanonQuery& a, const CanonQuery& b) {
  if (a.patterns.size() != b.patterns.size()) return false;
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    const CanonPattern& pa = a.patterns[i];
    const CanonPattern& pb = b.patterns[i];
    if (pa.subject_type != pb.subject_type || pa.ops != pb.ops ||
        pa.object_type != pb.object_type)
      return false;
    if (!SameConstraints(pa.subject, pb.subject)) return false;
    if (!SameConstraints(pa.object, pb.object)) return false;
  }
  return SameConstraints(a.globals, b.globals) && a.sharing == b.sharing &&
         a.shape == b.shape;
}

/// True when every sharing requirement of `b` is enforced by `a` (some `a`
/// group contains the whole `b` group): `a` unifies at least as much.
bool SharingRefines(const CanonQuery& a, const CanonQuery& b) {
  for (const auto& gb : b.sharing) {
    bool covered = false;
    for (const auto& ga : a.sharing) {
      if (std::includes(ga.begin(), ga.end(), gb.begin(), gb.end())) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

/// True when `a` is subsumed by `b`: every event tuple matching `a` matches
/// `b`, and — both being stateless rule queries of identical shape — every
/// alert `a` raises, `b` raises too.
bool CanonSubsumed(const CanonQuery& a, const CanonQuery& b) {
  if (!a.stateless || !b.stateless) return false;
  if (a.shape != b.shape) return false;
  if (a.patterns.size() != b.patterns.size()) return false;
  if (!SharingRefines(a, b)) return false;
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    const CanonPattern& pa = a.patterns[i];
    const CanonPattern& pb = b.patterns[i];
    if (pa.subject_type != pb.subject_type ||
        pa.object_type != pb.object_type)
      return false;
    if ((pa.ops & ~pb.ops) != 0) return false;  // a's ops ⊆ b's ops
    if (!ConjunctionImplies(pa.subject, pb.subject)) return false;
    if (!ConjunctionImplies(pa.object, pb.object)) return false;
  }
  return ConjunctionImplies(a.globals, b.globals);
}

SourceSpan AnchorSpan(const AnalyzedQuery& aq) {
  if (!aq.query->patterns.empty()) return aq.query->patterns.front().span;
  return SourceSpan{};
}

/// How a later-registered query relates to an earlier one. `Analyze` and
/// `CheckQuery` decide every pair through `Relate`, so they always agree.
enum class PairRelation { kNone, kDuplicate, kLaterTighter, kLaterWider };

PairRelation Relate(const CanonQuery& earlier, const CanonQuery& later,
                    const FleetOptions& options) {
  if (CanonEqual(earlier, later)) return PairRelation::kDuplicate;
  if (!options.subsumption) return PairRelation::kNone;
  // Mutually subsuming queries (equivalent constraints that differ
  // canonically, e.g. LIKE "ab%" and "ab%%") report the later one as the
  // wider: both claims hold.
  if (CanonSubsumed(earlier, later)) return PairRelation::kLaterWider;
  if (CanonSubsumed(later, earlier)) return PairRelation::kLaterTighter;
  return PairRelation::kNone;
}

/// The later query's finding for a related pair (`relation` != kNone).
Diagnostic MakeFinding(PairRelation relation, const AnalyzedQuery& later,
                       const std::string& other) {
  Diagnostic d;
  d.code = relation == PairRelation::kDuplicate ? "SA050" : "SA051";
  d.severity = Severity::kWarning;
  d.span = AnchorSpan(later);
  if (relation == PairRelation::kDuplicate) {
    d.message = "exact duplicate of fleet query '" + other +
                "': identical patterns, constraints, and alert shape up to "
                "renaming — both raise the same alerts on every stream "
                "(double alerting)";
    d.fix_hint = "drop one of the two queries, or differentiate this one if "
                 "the overlap is unintentional";
  } else if (relation == PairRelation::kLaterTighter) {
    d.message = "subsumed by fleet query '" + other +
                "': this query's constraints are provably tighter, so every "
                "alert it raises, '" + other + "' raises too";
    d.fix_hint = "drop this query if '" + other +
                 "' already covers it, or tighten '" + other + "'";
  } else {
    d.message = "subsumes fleet query '" + other +
                "': '" + other + "'s constraints are provably tighter, so "
                "every alert it raises, this query raises too";
    d.fix_hint = "drop '" + other + "' if this query already covers it";
  }
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

FleetEntry::FleetEntry(std::string name, AnalyzedQueryPtr aq)
    : name(std::move(name)),
      aq(std::move(aq)),
      canon(std::make_shared<const CanonQuery>(Canonicalize(*this->aq))) {}

bool FleetReport::HasFindings() const {
  for (const auto& f : findings) {
    if (!f.empty()) return true;
  }
  return false;
}

std::string FleetReport::ToString() const {
  std::ostringstream os;
  os << "fleet: " << names.size() << " query(ies), " << relations.size()
     << " relation(s)\n";
  for (const FleetRelation& r : relations) {
    if (r.kind == FleetRelation::Kind::kDuplicate) {
      os << "  SA050 '" << names[r.b] << "' duplicates '" << names[r.a]
         << "' (identical alerts; double alerting)\n";
    } else {
      os << "  SA051 '" << names[r.a] << "' is subsumed by '" << names[r.b]
         << "' (every alert of '" << names[r.a] << "' is raised by '"
         << names[r.b] << "')\n";
    }
  }
  os << "routing envelope (object type/op -> queries):\n";
  if (cells.empty()) os << "  (no patterns)\n";
  for (const RoutingCell& c : cells) {
    os << "  " << EntityTypeName(c.object_type) << "/" << EventOpName(c.op)
       << ": " << c.members.size() << " (";
    for (size_t i = 0; i < c.members.size(); ++i) {
      if (i > 0) os << ", ";
      os << names[c.members[i]];
    }
    os << ")\n";
  }
  return os.str();
}

FleetReport FleetAnalysis::Analyze(const std::vector<Member>& members,
                                   const Options& options) {
  FleetReport report;
  report.findings.resize(members.size());
  std::vector<CanonQuery> canon;
  canon.reserve(members.size());
  for (const Member& m : members) {
    report.names.push_back(m.name);
    canon.push_back(Canonicalize(*m.aq));
  }

  for (size_t j = 0; j < members.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      PairRelation r = Relate(canon[i], canon[j], options);
      if (r == PairRelation::kNone) continue;
      bool flip = r == PairRelation::kLaterTighter;  // a is the subsumed side
      report.relations.push_back(
          {flip ? j : i, flip ? i : j,
           r == PairRelation::kDuplicate ? FleetRelation::Kind::kDuplicate
                                         : FleetRelation::Kind::kSubsumes});
      report.findings[j].push_back(
          MakeFinding(r, *members[j].aq, members[i].name));
    }
  }

  // Routing-envelope overlap: which (object type, op) dispatch cells each
  // member's patterns cover, and how many members share each cell.
  std::map<std::pair<int, int>, std::vector<size_t>> cells;
  for (size_t m = 0; m < members.size(); ++m) {
    std::set<std::pair<int, int>> mine;
    for (const EventPatternDecl& decl : members[m].aq->query->patterns) {
      for (int op = 0; op < kNumEventOps; ++op) {
        if (!OpMaskContains(decl.ops, static_cast<EventOp>(op))) continue;
        mine.insert({static_cast<int>(decl.object.type), op});
      }
    }
    for (const auto& cell : mine) cells[cell].push_back(m);
  }
  for (auto& [key, ms] : cells) {
    RoutingCell c;
    c.object_type = static_cast<EntityType>(key.first);
    c.op = static_cast<EventOp>(key.second);
    c.members = std::move(ms);
    report.cells.push_back(std::move(c));
  }
  std::stable_sort(report.cells.begin(), report.cells.end(),
                   [](const RoutingCell& x, const RoutingCell& y) {
                     return x.members.size() > y.members.size();
                   });
  return report;
}

std::vector<Diagnostic> FleetAnalysis::CheckQuery(
    const FleetEntry& candidate, const std::vector<FleetEntry>& fleet,
    const Options& options) {
  std::vector<Diagnostic> out;
  for (const FleetEntry& m : fleet) {
    PairRelation r = Relate(*m.canon, *candidate.canon, options);
    if (r != PairRelation::kNone) {
      out.push_back(MakeFinding(r, *candidate.aq, m.name));
    }
  }
  return out;
}

}  // namespace saql
