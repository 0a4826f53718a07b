#include "engine/state_maintainer.h"

#include <algorithm>

#include "core/field_access.h"
#include "core/string_util.h"

namespace saql {

namespace {

/// Separator for composing multi-key group identifiers; value strings never
/// contain it.
constexpr char kKeySep = '\x1f';

}  // namespace

StateMaintainer::StateMaintainer(AnalyzedQueryPtr aq) : aq_(std::move(aq)) {}

Status StateMaintainer::Init() {
  const Query& q = *aq_->query;
  if (!q.IsStateful()) {
    return Status::Internal("StateMaintainer on a stateless query");
  }
  if (!q.window.has_value()) {
    return Status::Internal("stateful query without a window");
  }
  for (const StateField& f : q.state->fields) {
    CollectAggregateSites(*f.expr, &agg_sites_);
  }
  agg_names_.reserve(agg_sites_.size());
  for (const Expr* site : agg_sites_) {
    agg_names_.push_back(ToLower(site->callee));
    // Validate once so MakeCell cannot fail on the stream path.
    SAQL_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> probe,
                          MakeAggregator(agg_names_.back()));
    (void)probe;
  }
  if (q.window->kind == WindowSpec::Kind::kCount) {
    is_count_window_ = true;
    count_n_ = q.window->count;
  } else {
    assigner_ = std::make_unique<WindowAssigner>(*q.window);
  }
  return Status::Ok();
}

bool StateMaintainer::ResolveGroupKeys(const PatternMatch& match,
                                       std::vector<Value>* values,
                                       std::string* key) {
  values->clear();
  key->clear();
  for (const ResolvedGroupKey& k : aq_->group_keys) {
    const Event& e = *match.events[static_cast<size_t>(k.pattern_index)];
    EntityRole role = k.source == ResolvedGroupKey::Source::kSubject
                          ? EntityRole::kSubject
                          : EntityRole::kObject;
    Result<Value> v =
        k.field_id != FieldId::kInvalid
            ? (k.source == ResolvedGroupKey::Source::kEvent
                   ? GetEventField(e, k.field_id)
                   : GetEntityField(e, role, k.field_id))
            : (k.source == ResolvedGroupKey::Source::kEvent
                   ? GetEventField(e, k.field)
                   : GetEntityField(e, role, k.field));
    if (!v.ok()) {
      ++stats_.eval_errors;
      return false;
    }
    if (!key->empty()) key->push_back(kKeySep);
    key->append(v->ToString());
    values->push_back(std::move(*v));
  }
  if (aq_->group_keys.empty()) {
    // `state ... { } group by` omitted entirely: one global group.
    *key = "*";
  }
  return true;
}

StateMaintainer::Cell StateMaintainer::MakeCell(
    std::vector<Value> key_values) {
  Cell cell;
  cell.key_values = std::move(key_values);
  cell.aggs.reserve(agg_sites_.size());
  for (const std::string& name : agg_names_) {
    cell.aggs.push_back(std::move(MakeAggregator(name).value()));
  }
  return cell;
}

void StateMaintainer::FoldMatch(const PatternMatch& match, Cell* cell) {
  MatchEvalContext ctx(*aq_, match);
  for (size_t i = 0; i < agg_sites_.size(); ++i) {
    const Expr* site = agg_sites_[i];
    Value input(true);  // count() with no argument counts matches
    if (!site->args.empty()) {
      Result<Value> v = EvaluateExpr(*site->args[0], ctx);
      if (!v.ok()) {
        ++stats_.eval_errors;
        continue;
      }
      input = std::move(*v);
    }
    cell->aggs[i]->Add(input);
  }
}

WindowState StateMaintainer::FinishCell(const TimeWindow& window,
                                        Cell& cell) {
  agg_values_.clear();
  for (const auto& agg : cell.aggs) agg_values_.push_back(agg->Finish());
  AggFinishContext ctx(&agg_sites_, &agg_values_);
  WindowState state;
  state.window = window;
  const StateBlock& st = *aq_->query->state;
  state.fields.reserve(st.fields.size());
  for (const StateField& f : st.fields) {
    Result<Value> v = EvaluateExpr(*f.expr, ctx);
    if (!v.ok()) {
      ++stats_.eval_errors;
      state.fields.push_back(Value::Null());
    } else {
      state.fields.push_back(std::move(*v));
    }
  }
  return state;
}

void StateMaintainer::AddMatch(const PatternMatch& match) {
  ++stats_.matches_in;
  std::vector<Value> key_values;
  std::string key;
  if (!ResolveGroupKeys(match, &key_values, &key)) return;

  if (is_count_window_) {
    auto [it, inserted] = count_cells_.try_emplace(key);
    CountCell& cc = it->second;
    if (inserted || cc.count == 0) {
      cc.cell = MakeCell(key_values);
      cc.first_ts = match.last_ts;
    }
    FoldMatch(match, &cc.cell);
    cc.last_ts = match.last_ts;
    if (++cc.count >= count_n_) {
      TimeWindow w{cc.first_ts, cc.last_ts + 1};
      std::vector<ClosedGroup> groups;
      ClosedGroup g;
      g.group_key = key;
      g.key_values = std::move(cc.cell.key_values);
      g.state = FinishCell(w, cc.cell);
      groups.push_back(std::move(g));
      ++stats_.windows_closed;
      ++stats_.groups_closed;
      cc.count = 0;
      cc.cell = Cell{};
      if (close_cb_) close_cb_(w, groups);
    }
    return;
  }

  bool late = false;
  for (const TimeWindow& w : assigner_->Assign(match.last_ts)) {
    if (w.end <= closed_through_) {
      late = true;
      continue;
    }
    Bucket& bucket = open_[w.end];
    bucket.window = w;
    auto [it, inserted] = bucket.cells.try_emplace(key);
    if (inserted) {
      it->second = MakeCell(key_values);
      ++open_cells_;
    }
    FoldMatch(match, &it->second);
  }
  if (late) ++stats_.late_matches;
  stats_.peak_open_cells = std::max(stats_.peak_open_cells, open_cells_);
}

void StateMaintainer::CloseBucket(Bucket& bucket) {
  // Deterministic order: sort by group key.
  std::vector<std::pair<const std::string*, Cell*>> ordered;
  ordered.reserve(bucket.cells.size());
  for (auto& [key, cell] : bucket.cells) {
    ordered.emplace_back(&key, &cell);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  open_cells_ -= ordered.size();
  ++stats_.windows_closed;
  stats_.groups_closed += ordered.size();
  std::vector<ClosedGroup> groups;
  groups.reserve(ordered.size());
  for (auto& [key, cell] : ordered) {
    ClosedGroup g;
    g.group_key = *key;
    g.key_values = std::move(cell->key_values);
    g.state = FinishCell(bucket.window, *cell);
    groups.push_back(std::move(g));
  }
  if (close_cb_) close_cb_(bucket.window, groups);
}

void StateMaintainer::AdvanceWatermark(Timestamp watermark) {
  if (is_count_window_) return;
  closed_through_ = std::max(closed_through_, watermark);
  while (!open_.empty() && open_.begin()->first <= watermark) {
    CloseBucket(open_.begin()->second);
    open_.erase(open_.begin());
  }
}

void StateMaintainer::Finish() {
  if (is_count_window_) {
    // Emit partial count windows so end-of-stream data is not lost.
    std::vector<std::string> keys;
    for (auto& [key, cc] : count_cells_) {
      if (cc.count > 0) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      CountCell& cc = count_cells_[key];
      TimeWindow w{cc.first_ts, cc.last_ts + 1};
      std::vector<ClosedGroup> groups;
      ClosedGroup g;
      g.group_key = key;
      g.key_values = std::move(cc.cell.key_values);
      g.state = FinishCell(w, cc.cell);
      groups.push_back(std::move(g));
      ++stats_.windows_closed;
      ++stats_.groups_closed;
      cc.count = 0;
      if (close_cb_) close_cb_(w, groups);
    }
    count_cells_.clear();
    return;
  }
  while (!open_.empty()) {
    CloseBucket(open_.begin()->second);
    open_.erase(open_.begin());
  }
}

}  // namespace saql
