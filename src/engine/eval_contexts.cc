#include "engine/eval_contexts.h"

#include <algorithm>

#include "core/field_access.h"
#include "core/string_util.h"

namespace saql {

Result<Value> MatchEvalContext::ResolveRef(const Expr& ref) const {
  // Analyzed references carry their binding: matched-event index + FieldId.
  switch (ref.ref_kind) {
    case RefKind::kEntity: {
      const Event& e = *match_.events[static_cast<size_t>(ref.ref_index)];
      Result<Value> v = GetEntityField(e, ref.ref_role, ref.ref_field);
      if (!v.ok()) return Value::Null();
      return v;
    }
    case RefKind::kEvent: {
      const Event& e = *match_.events[static_cast<size_t>(ref.ref_index)];
      Result<Value> v = ref.ref_field != FieldId::kInvalid
                            ? GetEventField(e, ref.ref_field)
                            : GetEventField(e, ref.field);
      if (!v.ok()) return Value::Null();
      return v;
    }
    case RefKind::kUnresolved:
      break;  // hand-built AST: resolve by name below
    default:
      return Value::Null();  // state/group/cluster refs have no match context
  }
  // Entity variable: read the matched event it binds to.
  auto ent = aq_.entity_vars.find(ref.base);
  if (ent != aq_.entity_vars.end()) {
    const EntityBinding& b = ent->second.front();
    const Event& e = *match_.events[static_cast<size_t>(b.pattern_index)];
    std::string field =
        ref.field.empty() ? DefaultFieldForEntity(b.type) : ref.field;
    Result<Value> v = GetEntityField(e, b.role, field);
    if (!v.ok()) return Value::Null();
    return v;
  }
  // Event alias.
  auto alias = aq_.alias_to_pattern.find(ref.base);
  if (alias != aq_.alias_to_pattern.end()) {
    const Event& e = *match_.events[static_cast<size_t>(alias->second)];
    Result<Value> v = GetEventField(e, ref.field);
    if (!v.ok()) return Value::Null();
    return v;
  }
  return Value::Null();
}

const std::string* MatchEvalContext::ResolveStringRef(
    const Expr& expr) const {
  if (expr.kind != ExprKind::kRef) return nullptr;
  switch (expr.ref_kind) {
    case RefKind::kEntity:
      return GetEntityStringFieldPtr(
          *match_.events[static_cast<size_t>(expr.ref_index)], expr.ref_role,
          expr.ref_field);
    case RefKind::kEvent:
      return GetEventStringFieldPtr(
          *match_.events[static_cast<size_t>(expr.ref_index)],
          expr.ref_field);
    default:
      return nullptr;
  }
}

Result<Value> WindowEvalContext::ResolveRef(const Expr& ref) const {
  // Analyzed references resolve by index, no name lookups.
  switch (ref.ref_kind) {
    case RefKind::kState: {
      size_t k = static_cast<size_t>(ref.history.value_or(0));
      if (history_ == nullptr || k >= history_->size()) return Value::Null();
      return (*history_)[k].fields[static_cast<size_t>(ref.ref_index)];
    }
    case RefKind::kGroupKey: {
      size_t i = static_cast<size_t>(ref.ref_index);
      if (group_key_values_ == nullptr || i >= group_key_values_->size()) {
        return Value::Null();
      }
      return (*group_key_values_)[i];
    }
    case RefKind::kInvariant: {
      size_t i = static_cast<size_t>(ref.ref_index);
      if (invariant_env_ == nullptr || i >= invariant_env_->size()) {
        return Value::Null();
      }
      return (*invariant_env_)[i];
    }
    default:
      break;  // cluster refs and unresolved nodes take the name path
  }

  const Query& q = *aq_.query;

  // State history: ss[k].field.
  if (q.IsStateful() && ref.base == q.state->var) {
    size_t k = static_cast<size_t>(ref.history.value_or(0));
    if (history_ == nullptr || k >= history_->size()) return Value::Null();
    auto idx = aq_.state_field_index.find(ref.field);
    if (idx == aq_.state_field_index.end()) return Value::Null();
    return (*history_)[k].fields[static_cast<size_t>(idx->second)];
  }

  // Cluster outcome.
  if (ref.base == "cluster") {
    if (cluster_ == nullptr || !cluster_->valid) return Value::Null();
    std::string f = ToLower(ref.field);
    if (f == "outlier") return Value(cluster_->outlier);
    if (f == "cluster_id") {
      return Value(static_cast<int64_t>(cluster_->cluster_id));
    }
    if (f == "cluster_size") {
      return Value(static_cast<int64_t>(cluster_->cluster_size));
    }
    return Value::Null();
  }

  // Invariant variable.
  if (invariant_env_ != nullptr) {
    auto it = std::find(aq_.invariant_vars.begin(),
                        aq_.invariant_vars.end(), ref.base);
    if (it != aq_.invariant_vars.end()) {
      size_t idx =
          static_cast<size_t>(it - aq_.invariant_vars.begin());
      if (idx < invariant_env_->size()) return (*invariant_env_)[idx];
      return Value::Null();
    }
  }

  // Group-by key.
  if (group_key_values_ != nullptr) {
    for (size_t i = 0; i < aq_.group_keys.size(); ++i) {
      const ResolvedGroupKey& k = aq_.group_keys[i];
      if (k.base != ref.base) continue;
      if (!ref.field.empty() && ToLower(ref.field) != k.field) continue;
      if (i < group_key_values_->size()) return (*group_key_values_)[i];
    }
  }
  return Value::Null();
}

Result<Value> AggFinishContext::ResolveRef(const Expr& ref) const {
  (void)ref;
  // The analyzer restricts state-field expressions to aggregates,
  // literals, and arithmetic; a stray reference resolves to null.
  return Value::Null();
}

Result<Value> AggFinishContext::ResolveAggregate(const Expr& call) const {
  for (size_t i = 0; i < sites_->size(); ++i) {
    if ((*sites_)[i] == &call) return (*values_)[i];
  }
  return Status::Internal("aggregate site missing at window close");
}

void CollectAggregateSites(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kCall &&
      IsAggregateFunction(ToLower(expr.callee))) {
    out->push_back(&expr);
    return;  // analyzer guarantees no nesting
  }
  if (expr.lhs) CollectAggregateSites(*expr.lhs, out);
  if (expr.rhs) CollectAggregateSites(*expr.rhs, out);
  for (const ExprPtr& a : expr.args) {
    CollectAggregateSites(*a, out);
  }
}

}  // namespace saql
