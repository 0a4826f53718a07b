#include "analysis/fleet_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
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
  /// Total-order key, rendered once from the fields above by
  /// `MakeCanonConstraint`; equal keys ⇔ equal canonical constraints.
  std::string key;
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
  char buf[360];
  std::snprintf(buf, sizeof(buf), "%d|%d|%d|%.17g|",
                static_cast<int>(out.field), static_cast<int>(out.op),
                static_cast<int>(out.tag), out.num);
  out.key = std::string(buf) + out.str;
  return out;
}

void SortByKey(std::vector<CanonConstraint>* v) {
  std::sort(v->begin(), v->end(),
            [](const CanonConstraint& a, const CanonConstraint& b) {
              return a.key < b.key;
            });
}

bool SameConstraints(const std::vector<CanonConstraint>& a,
                     const std::vector<CanonConstraint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key) return false;
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
  /// `Fleet` index: hash of everything SA050 and SA051 require to be
  /// equal (shape, pattern count, per-pattern subject and object type).
  uint64_t bucket = 0;
  /// `Fleet` index: hashes of the required keys (`RequiredKey`), sorted,
  /// without duplicates.
  std::vector<uint64_t> keys;
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

// ---------------------------------------------------------------------------
// Fleet index keys
// ---------------------------------------------------------------------------

/// Folds `v` into the running hash `h` (splitmix64 finalizer).
uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Sets `*key` to the index key of `c` at `position` (pattern index, or -1
/// for a global constraint) and `role`, when `c` is a constraint only an
/// identical constraint implies (`ConstraintImplies`): wildcard-free
/// string equality, keyed on the folded needle `LikeImplies` compares, and
/// numeric or bool equality. Returns false for every other constraint.
bool RequiredKey(const CanonConstraint& c, int position, int role,
                 uint64_t* key) {
  if (c.op != ConstraintOp::kEq) return false;
  uint64_t value = 0;
  switch (c.tag) {
    case CanonConstraint::Tag::kString:
      // `ClassifyPattern`'s kExact, whose needle is the whole string.
      if (c.str.find_first_of("%_") != std::string::npos) return false;
      value = std::hash<std::string>{}(c.str);
      break;
    case CanonConstraint::Tag::kNumber:
    case CanonConstraint::Tag::kBool: {
      if (std::isnan(c.num)) return false;  // implied by nothing
      const double num = c.num + 0.0;  // -0 == +0 under `ConstraintImplies`
      std::memcpy(&value, &num, sizeof(value));
      break;
    }
    case CanonConstraint::Tag::kOther:
      return false;
  }
  uint64_t h =
      Mix(static_cast<uint64_t>(position), static_cast<uint64_t>(role));
  h = Mix(h, static_cast<uint64_t>(c.field));
  h = Mix(h, static_cast<uint64_t>(c.tag));
  *key = Mix(h, value);
  return true;
}

void AddRequiredKeys(const std::vector<CanonConstraint>& constraints,
                     int position, int role, std::vector<uint64_t>* keys) {
  for (const CanonConstraint& c : constraints) {
    uint64_t key = 0;
    if (RequiredKey(c, position, role, &key)) keys->push_back(key);
  }
}

/// Fills `q`'s bucket and required keys from its canonical form.
void IndexKeys(CanonQuery* q) {
  q->bucket = Mix(std::hash<std::string>{}(q->shape), q->patterns.size());
  for (size_t i = 0; i < q->patterns.size(); ++i) {
    const CanonPattern& p = q->patterns[i];
    q->bucket = Mix(q->bucket, static_cast<uint64_t>(p.subject_type));
    q->bucket = Mix(q->bucket, static_cast<uint64_t>(p.object_type));
    AddRequiredKeys(p.subject, static_cast<int>(i), 0, &q->keys);
    AddRequiredKeys(p.object, static_cast<int>(i), 1, &q->keys);
  }
  AddRequiredKeys(q->globals, -1, 2, &q->keys);
  std::sort(q->keys.begin(), q->keys.end());
  q->keys.erase(std::unique(q->keys.begin(), q->keys.end()), q->keys.end());
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
  IndexKeys(&out);
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

using PairRelation = FleetAnalysis::PairRelation;

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

FleetAnalysis::PairRelation FleetAnalysis::Relate(const FleetEntry& earlier,
                                                  const FleetEntry& later,
                                                  const Options& options) {
  if (CanonEqual(*earlier.canon, *later.canon)) {
    return PairRelation::kDuplicate;
  }
  if (!options.subsumption) return PairRelation::kNone;
  // Mutually subsuming queries (equivalent constraints that differ
  // canonically, e.g. LIKE "ab%" and "ab%%") report the later one as the
  // wider: both claims hold.
  if (CanonSubsumed(*earlier.canon, *later.canon)) {
    return PairRelation::kLaterWider;
  }
  if (CanonSubsumed(*later.canon, *earlier.canon)) {
    return PairRelation::kLaterTighter;
  }
  return PairRelation::kNone;
}

FleetReport FleetAnalysis::Analyze(const std::vector<Member>& members,
                                   const Options& options) {
  FleetReport report;
  report.findings.resize(members.size());
  // A fresh fleet stamps member j with seq j.
  Fleet fleet;
  for (size_t j = 0; j < members.size(); ++j) {
    report.names.push_back(members[j].name);
    FleetEntry entry(members[j].name, members[j].aq);
    for (const FleetEntry* m : fleet.Candidates(entry)) {
      PairRelation r = Relate(*m, entry, options);
      if (r == PairRelation::kNone) continue;
      const size_t i = m->seq;
      bool flip = r == PairRelation::kLaterTighter;  // a is the subsumed side
      report.relations.push_back(
          {flip ? j : i, flip ? i : j,
           r == PairRelation::kDuplicate ? FleetRelation::Kind::kDuplicate
                                         : FleetRelation::Kind::kSubsumes});
      report.findings[j].push_back(MakeFinding(r, *entry.aq, m->name));
    }
    fleet.Add(std::move(entry));
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

std::vector<Diagnostic> FleetAnalysis::CheckQuery(const FleetEntry& candidate,
                                                  const Fleet& fleet,
                                                  const Options& options) {
  return fleet.Check(candidate, options);
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

Fleet::Fleet(std::initializer_list<FleetEntry> entries) {
  for (const FleetEntry& e : entries) Add(e);
}

void Fleet::Add(FleetEntry entry) {
  entry.seq = next_seq_++;
  const CanonQuery& c = *entry.canon;
  Bucket& bucket = buckets_[c.bucket];
  bucket.members.push_back(entry.seq);
  if (c.keys.empty()) bucket.keyless.push_back(entry.seq);
  for (uint64_t key : c.keys) {
    // `entry.seq` is the largest yet: it goes last in the key's range.
    const std::pair<uint64_t, uint64_t> posting(key, entry.seq);
    bucket.postings.insert(std::upper_bound(bucket.postings.begin(),
                                            bucket.postings.end(), posting),
                           posting);
  }
  entries_.push_back(std::move(entry));
}

bool Fleet::Remove(const std::string& name) {
  auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&name](const FleetEntry& e) { return e.name == name; });
  if (it == entries_.end()) return false;
  const uint64_t seq = it->seq;
  const CanonQuery& c = *it->canon;
  auto bucket = buckets_.find(c.bucket);
  auto drop = [seq](std::vector<uint64_t>* seqs) {
    seqs->erase(std::lower_bound(seqs->begin(), seqs->end(), seq));
  };
  drop(&bucket->second.members);
  if (c.keys.empty()) drop(&bucket->second.keyless);
  std::vector<std::pair<uint64_t, uint64_t>>& postings =
      bucket->second.postings;
  for (uint64_t key : c.keys) {
    postings.erase(std::lower_bound(postings.begin(), postings.end(),
                                    std::make_pair(key, seq)));
  }
  if (bucket->second.members.empty()) buckets_.erase(bucket);
  entries_.erase(it);
  return true;
}

const FleetEntry& Fleet::BySeq(uint64_t seq) const {
  return *std::lower_bound(
      entries_.begin(), entries_.end(), seq,
      [](const FleetEntry& e, uint64_t s) { return e.seq < s; });
}

std::vector<const FleetEntry*> Fleet::Candidates(
    const FleetEntry& candidate) const {
  std::vector<const FleetEntry*> out;
  auto found = buckets_.find(candidate.canon->bucket);
  if (found == buckets_.end()) return out;
  const Bucket& bucket = found->second;
  const std::vector<uint64_t>& keys = candidate.canon->keys;
  std::vector<uint64_t> seqs;
  if (keys.empty()) {
    // Every member holds all of no keys: the candidate may be wider than,
    // or equal to, any member of its bucket.
    seqs = bucket.members;
  } else {
    std::vector<uint64_t> hits;  // one per (member, shared key)
    using Posting = std::pair<uint64_t, uint64_t>;
    using Range = std::pair<std::vector<Posting>::const_iterator,
                            std::vector<Posting>::const_iterator>;
    Range shortest{bucket.postings.end(), bucket.postings.end()};
    bool all_listed = true;
    for (uint64_t key : keys) {
      Range list = std::equal_range(
          bucket.postings.begin(), bucket.postings.end(), Posting(key, 0),
          [](const Posting& x, const Posting& y) { return x.first < y.first; });
      if (list.first == list.second) {
        all_listed = false;
        continue;
      }
      for (auto it = list.first; it != list.second; ++it) {
        hits.push_back(it->second);
      }
      if (shortest.first == shortest.second ||
          list.second - list.first < shortest.second - shortest.first) {
        shortest = list;
      }
    }
    // Members that may be tighter than, or equal to, the candidate hold
    // every one of its keys.
    if (all_listed) {
      for (auto it = shortest.first; it != shortest.second; ++it) {
        const std::vector<uint64_t>& held = BySeq(it->second).canon->keys;
        if (std::includes(held.begin(), held.end(), keys.begin(),
                          keys.end())) {
          seqs.push_back(it->second);
        }
      }
    }
    // Members that may be wider hold only keys of the candidate: each of
    // their keys is a hit.
    std::sort(hits.begin(), hits.end());
    for (size_t i = 0; i < hits.size();) {
      size_t end = i;
      while (end < hits.size() && hits[end] == hits[i]) ++end;
      if (end - i == BySeq(hits[i]).canon->keys.size()) {
        seqs.push_back(hits[i]);
      }
      i = end;
    }
    seqs.insert(seqs.end(), bucket.keyless.begin(), bucket.keyless.end());
    std::sort(seqs.begin(), seqs.end());
    seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  }
  out.reserve(seqs.size());
  for (uint64_t seq : seqs) out.push_back(&BySeq(seq));
  return out;
}

std::vector<Diagnostic> Fleet::Check(const FleetEntry& candidate,
                                     const FleetOptions& options) const {
  std::vector<Diagnostic> out;
  for (const FleetEntry* m : Candidates(candidate)) {
    PairRelation r = FleetAnalysis::Relate(*m, candidate, options);
    if (r != PairRelation::kNone) {
      out.push_back(MakeFinding(r, *candidate.aq, m->name));
    }
  }
  return out;
}

}  // namespace saql
