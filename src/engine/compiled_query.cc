#include "engine/compiled_query.h"

#include <algorithm>

#include "core/string_util.h"
#include "engine/cluster_stage.h"

namespace saql {

CompiledQuery::CompiledQuery(AnalyzedQueryPtr aq, std::string name,
                             Options options)
    : aq_(std::move(aq)), name_(std::move(name)), options_(options) {}

Result<std::unique_ptr<CompiledQuery>> CompiledQuery::Create(
    AnalyzedQueryPtr aq, std::string name, Options options) {
  if (!aq) return Status::InvalidArgument("null analyzed query");
  std::unique_ptr<CompiledQuery> q(
      new CompiledQuery(std::move(aq), std::move(name), options));
  SAQL_RETURN_IF_ERROR(q->Init());
  return q;
}

Status CompiledQuery::Init() {
  const Query& q = *aq_->query;
  for (const AttrConstraint& c : q.global_constraints) {
    global_constraints_.emplace_back(c.field, c.op, c.value);
  }
  patterns_.reserve(q.patterns.size());
  for (const EventPatternDecl& p : q.patterns) {
    patterns_.emplace_back(p);
  }
  scratch_single_.events.assign(1, nullptr);
  if (q.patterns.size() > 1) {
    MultieventMatcher::Options mo;
    mo.match_horizon = options_.match_horizon;
    mo.max_partial_matches = options_.max_partial_matches;
    matcher_ =
        std::make_unique<MultieventMatcher>(aq_, &patterns_, mo);
  }
  if (q.IsStateful()) {
    state_ = std::make_unique<StateMaintainer>(aq_);
    SAQL_RETURN_IF_ERROR(state_->Init());
    state_->SetCloseCallback(
        [this](const TimeWindow& w,
               std::vector<StateMaintainer::ClosedGroup>& groups) {
          OnWindowClose(w, groups);
        });
  }
  return Status::Ok();
}

bool CompiledQuery::PassesCooldown(const std::string& group, Timestamp ts) {
  if (options_.alert_cooldown <= 0) return true;
  auto [it, inserted] = last_alert_ts_.try_emplace(group, ts);
  if (inserted) return true;
  if (ts - it->second < options_.alert_cooldown) return false;
  it->second = ts;
  return true;
}

void CompiledQuery::ReportError(const Status& status) {
  ++stats_.eval_errors;
  if (reporter_ != nullptr) reporter_->Report(name_, status);
}

bool CompiledQuery::StructuralMatchAny(const Event& event) const {
  for (const CompiledPattern& p : patterns_) {
    if (p.StructuralMatch(event)) return true;
  }
  return false;
}

void CompiledQuery::ReInternSymbols(Interner& interner) {
  for (CompiledConstraint& c : global_constraints_) c.ReIntern(interner);
  for (CompiledPattern& p : patterns_) p.ReInternSymbols(interner);
}

std::string CompiledQuery::GroupSignature() const {
  std::vector<std::string> sigs;
  sigs.reserve(patterns_.size());
  for (const CompiledPattern& p : patterns_) {
    sigs.push_back(p.StructuralSignature());
  }
  std::sort(sigs.begin(), sigs.end());
  return Join(sigs, "+");
}

CompiledQuery::QueryStats CompiledQuery::stats() const {
  QueryStats out = stats_;
  if (state_ != nullptr) out.late_matches = state_->stats().late_matches;
  return out;
}

void CompiledQuery::OnEvent(const Event& event) {
  ++stats_.events_in;
  for (const CompiledConstraint& c : global_constraints_) {
    if (!c.MatchesEvent(event)) return;
  }
  ++stats_.events_past_global;

  if (matcher_ != nullptr) {
    scratch_matches_.clear();
    matcher_->OnEvent(event, &scratch_matches_);
    for (const PatternMatch& m : scratch_matches_) {
      ++stats_.matches;
      if (state_ != nullptr) {
        state_->AddMatch(m);
      } else {
        EmitRuleMatch(m);
      }
    }
    return;
  }

  // Single-pattern fast path.
  if (!patterns_[0].Matches(event)) return;
  ++stats_.matches;
  EmitSingleMatch(event);
}

void CompiledQuery::EmitSingleMatch(const Event& event) {
  // The match borrows the pushed event: neither consumer keeps it (they
  // copy what they need), so nothing of the event is copied.
  PatternMatch& m = scratch_single_;
  m.events[0] = &event;
  m.first_ts = m.last_ts = event.ts;
  if (state_ != nullptr) {
    state_->AddMatch(m);
  } else {
    EmitRuleMatch(m);
  }
}

void CompiledQuery::OnIndexedDelivery(uint64_t events_in,
                                      uint64_t failed_global,
                                      const EventRefs& matched) {
  // Mirrors the single-pattern OnEvent path with the constraint evaluation
  // hoisted into the group's shared index; the stats transitions must stay
  // bit-identical to brute-force delivery.
  stats_.events_in += events_in;
  stats_.events_past_global += events_in - failed_global;
  for (const Event* e : matched) {
    ++stats_.matches;
    EmitSingleMatch(*e);
  }
}

void CompiledQuery::OnWatermark(Timestamp ts) {
  if (matcher_ != nullptr) matcher_->Prune(ts);
  if (state_ != nullptr) state_->AdvanceWatermark(ts);
}

void CompiledQuery::OnFinish() {
  if (state_ != nullptr) state_->Finish();
}

void CompiledQuery::EmitRuleMatch(const PatternMatch& match) {
  const Query& q = *aq_->query;
  MatchEvalContext ctx(*aq_, match);
  if (q.alert) {
    Result<bool> fire = EvaluateBool(*q.alert, ctx);
    if (!fire.ok()) {
      ReportError(fire.status());
      return;
    }
    if (!*fire) return;
  }
  // Evaluate the row into scratch and look its distinct key up before
  // building the alert: a duplicate row, the common `return distinct`
  // match, allocates nothing. A string attribute is read in place and
  // becomes a Value only in an alert.
  const size_t n = q.returns.size();
  row_.resize(n);
  distinct_key_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Expr& expr = *q.returns[i].expr;
    const std::string* s = ctx.ResolveStringRef(expr);
    if (s == nullptr) {
      Result<Value> v = EvaluateExpr(expr, ctx);
      if (!v.ok()) {
        ReportError(v.status());
        v = Value::Null();
      }
      row_[i] = std::move(*v);
    }
    if (q.return_distinct) {
      if (s != nullptr) {
        distinct_key_ += *s;
      } else {
        row_[i].AppendTo(distinct_key_);
      }
      distinct_key_ += '\x1f';
    }
  }
  if (q.return_distinct) {
    if (distinct_seen_.find(distinct_key_) != distinct_seen_.end()) {
      return;  // duplicate result row suppressed
    }
    distinct_seen_.insert(distinct_key_);
  }
  if (!PassesCooldown(/*group=*/"", match.last_ts)) return;
  Alert alert;
  alert.query_name = name_;
  alert.ts = match.last_ts;
  alert.values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const ReturnItem& item = q.returns[i];
    const std::string* s = ctx.ResolveStringRef(*item.expr);
    alert.values.emplace_back(item.label,
                              s != nullptr ? Value(*s) : std::move(row_[i]));
  }
  ++stats_.alerts;
  if (sink_) sink_(alert);
}

void CompiledQuery::InitInvariantEnv(GroupHistory* gh) {
  const Query& q = *aq_->query;
  gh->invariant_env.assign(aq_->invariant_vars.size(), Value::Null());
  WindowEvalContext ctx(*aq_, nullptr, &gh->key_values, &gh->invariant_env,
                        nullptr);
  for (const InvariantStmt& s : q.invariant->stmts) {
    if (!s.is_init) continue;
    Result<Value> v = EvaluateExpr(*s.expr, ctx);
    if (!v.ok()) {
      ReportError(v.status());
      continue;
    }
    auto it = std::find(aq_->invariant_vars.begin(),
                        aq_->invariant_vars.end(), s.var);
    size_t idx = static_cast<size_t>(it - aq_->invariant_vars.begin());
    gh->invariant_env[idx] = std::move(*v);
  }
}

void CompiledQuery::UpdateInvariant(GroupHistory* gh) {
  const Query& q = *aq_->query;
  WindowEvalContext ctx(*aq_, &gh->history, &gh->key_values,
                        &gh->invariant_env, nullptr);
  for (const InvariantStmt& s : q.invariant->stmts) {
    if (s.is_init) continue;
    Result<Value> v = EvaluateExpr(*s.expr, ctx);
    if (!v.ok()) {
      ReportError(v.status());
      continue;
    }
    auto it = std::find(aq_->invariant_vars.begin(),
                        aq_->invariant_vars.end(), s.var);
    size_t idx = static_cast<size_t>(it - aq_->invariant_vars.begin());
    gh->invariant_env[idx] = std::move(*v);
  }
}

void CompiledQuery::OnWindowClose(
    const TimeWindow& window,
    std::vector<StateMaintainer::ClosedGroup>& groups) {
  ++stats_.windows_closed;
  const Query& q = *aq_->query;
  const bool has_invariant = aq_->HasInvariant();
  const bool has_cluster = aq_->HasCluster();

  // Phase 1: push each group's new window state into its history.
  std::vector<GroupHistory*> histories(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    StateMaintainer::ClosedGroup& cg = groups[g];
    auto [it, inserted] = groups_.try_emplace(cg.group_key);
    GroupHistory& gh = it->second;
    if (inserted) {
      gh.key_values = cg.key_values;
      if (has_invariant) InitInvariantEnv(&gh);
    }
    gh.history.push_front(std::move(cg.state));
    size_t max_hist = static_cast<size_t>(q.state->history);
    while (gh.history.size() > max_hist) gh.history.pop_back();
    ++gh.windows_seen;
    histories[g] = &gh;
  }

  // Phase 2: cluster stage across all groups of this window.
  std::vector<ClusterOutcome> outcomes(groups.size());
  if (has_cluster) {
    std::vector<ClusterGroupInput> inputs(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      inputs[g].history = &histories[g]->history;
      inputs[g].key_values = &histories[g]->key_values;
      inputs[g].invariant_env =
          has_invariant ? &histories[g]->invariant_env : nullptr;
    }
    outcomes = RunClusterStage(
        *aq_, inputs, [this](const Status& s) { ReportError(s); });
  }

  // Phase 3: invariant training / detection and alert evaluation.
  for (size_t g = 0; g < groups.size(); ++g) {
    GroupHistory& gh = *histories[g];
    bool in_training = false;
    if (has_invariant) {
      size_t training =
          static_cast<size_t>(q.invariant->training_windows);
      in_training = gh.windows_seen <= training;
      if (in_training) {
        UpdateInvariant(&gh);
        continue;  // no alerts during training
      }
    }

    WindowEvalContext ctx(*aq_, &gh.history, &gh.key_values,
                          has_invariant ? &gh.invariant_env : nullptr,
                          has_cluster ? &outcomes[g] : nullptr);
    bool fire = true;
    if (q.alert) {
      Result<bool> r = EvaluateBool(*q.alert, ctx);
      if (!r.ok()) {
        ReportError(r.status());
        fire = false;
      } else {
        fire = *r;
      }
    }
    if (fire && PassesCooldown(groups[g].group_key, window.end)) {
      Alert alert;
      alert.query_name = name_;
      alert.ts = window.end;
      alert.window = window;
      alert.group = groups[g].group_key;
      std::replace(alert.group.begin(), alert.group.end(), '\x1f', '|');
      for (const ReturnItem& item : q.returns) {
        Result<Value> v = EvaluateExpr(*item.expr, ctx);
        if (!v.ok()) {
          ReportError(v.status());
          v = Value::Null();
        }
        alert.values.emplace_back(item.label, std::move(*v));
      }
      ++stats_.alerts;
      if (sink_) sink_(alert);
    }

    // Online invariants absorb what they just saw (after detection).
    if (has_invariant && !q.invariant->offline) {
      UpdateInvariant(&gh);
    }
  }
}

}  // namespace saql
