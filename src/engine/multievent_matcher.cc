#include "engine/multievent_matcher.h"

#include <algorithm>

namespace saql {

MultieventMatcher::MultieventMatcher(
    AnalyzedQueryPtr aq, const std::vector<CompiledPattern>* patterns,
    Options options)
    : aq_(std::move(aq)), patterns_(patterns), options_(options) {
  horizon_ = options_.match_horizon;
  const Query& q = *aq_->query;
  if (q.window.has_value() && q.window->kind == WindowSpec::Kind::kTime &&
      q.window->length < horizon_) {
    horizon_ = q.window->length;
  }
  const size_t n = static_cast<size_t>(aq_->NumPatterns());
  empty_.events.resize(n);
  empty_.filled.assign(n, false);
  match_mask_.assign(n, false);
}

bool MultieventMatcher::BindVars(
    int pattern_idx, const Event& event,
    std::unordered_map<std::string, std::string>* bindings) const {
  const EventPatternDecl& decl =
      aq_->query->patterns[static_cast<size_t>(pattern_idx)];
  struct VarRole {
    const std::string* var;
    EntityRole role;
  };
  const VarRole roles[2] = {{&decl.subject.var, EntityRole::kSubject},
                            {&decl.object.var, EntityRole::kObject}};
  for (const VarRole& vr : roles) {
    // Only variables occurring in more than one pattern constrain identity;
    // skipping singletons keeps the hot path free of key construction.
    auto occ = aq_->entity_vars.find(*vr.var);
    if (occ == aq_->entity_vars.end() || occ->second.size() < 2) continue;
    std::string key = EntityKeyOf(event, vr.role);
    auto [it, inserted] = bindings->emplace(*vr.var, key);
    if (!inserted && it->second != key) return false;
  }
  return true;
}

bool MultieventMatcher::TryExtend(const Partial& p, int pattern_idx,
                                  const Event& event, Partial* out) const {
  if (!match_mask_[static_cast<size_t>(pattern_idx)]) return false;
  // Gap bound between consecutive ordered steps.
  if (aq_->ordered && p.filled_count > 0) {
    size_t step = static_cast<size_t>(p.next_step);
    if (step > 0 && step - 1 < aq_->temporal_gaps.size()) {
      Duration gap = aq_->temporal_gaps[step - 1];
      if (gap > 0 && event.ts - p.last_ts > gap) return false;
    }
  }
  *out = p;
  if (!BindVars(pattern_idx, event, &out->bindings)) return false;
  out->events[static_cast<size_t>(pattern_idx)] = event;
  out->filled[static_cast<size_t>(pattern_idx)] = true;
  ++out->filled_count;
  if (out->filled_count == 1) out->first_ts = event.ts;
  out->last_ts = std::max(out->last_ts, event.ts);
  ++out->next_step;
  return true;
}

void MultieventMatcher::Emit(const Partial& p,
                             std::vector<PatternMatch>* out) {
  // `p` sits in `extensions_`, which the next `OnEvent` clears; until
  // then its events back the match.
  PatternMatch m;
  m.events.reserve(p.events.size());
  for (const Event& e : p.events) m.events.push_back(&e);
  m.first_ts = p.first_ts;
  m.last_ts = p.last_ts;
  out->push_back(std::move(m));
  ++stats_.matches;
}

void MultieventMatcher::OnEvent(const Event& event,
                                std::vector<PatternMatch>* out) {
  ++stats_.events_in;
  const int n = aq_->NumPatterns();
  // Each pattern is tested once per event; an event matching none of
  // them (almost every event) touches no partial.
  bool any = false;
  for (int i = 0; i < n; ++i) {
    const bool m = (*patterns_)[static_cast<size_t>(i)].Matches(event);
    match_mask_[static_cast<size_t>(i)] = m;
    any = any || m;
  }
  if (!any) {
    stats_.peak_partials = std::max(stats_.peak_partials, partials_.size());
    return;
  }
  extensions_.clear();

  if (aq_->ordered) {
    // Each partial waits for exactly one next step.
    for (const Partial& p : partials_) {
      int pattern_idx =
          aq_->temporal_order[static_cast<size_t>(p.next_step)];
      Partial ext;
      if (TryExtend(p, pattern_idx, event, &ext)) {
        extensions_.push_back(std::move(ext));
      }
    }
    // Start a fresh partial at step 0.
    Partial ext;
    if (TryExtend(empty_, aq_->temporal_order[0], event, &ext)) {
      extensions_.push_back(std::move(ext));
    }
  } else {
    // Unordered: the event may fill any unfilled slot.
    for (const Partial& p : partials_) {
      for (int i = 0; i < n; ++i) {
        if (p.filled[static_cast<size_t>(i)]) continue;
        Partial ext;
        if (TryExtend(p, i, event, &ext)) {
          extensions_.push_back(std::move(ext));
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      Partial ext;
      if (TryExtend(empty_, i, event, &ext)) {
        extensions_.push_back(std::move(ext));
      }
    }
  }

  for (Partial& ext : extensions_) {
    if (ext.filled_count == n) {
      Emit(ext, out);
      continue;
    }
    if (partials_.size() >= options_.max_partial_matches) {
      ++stats_.partials_dropped;
      continue;
    }
    partials_.push_back(std::move(ext));
    ++stats_.partials_created;
  }
  stats_.peak_partials = std::max(stats_.peak_partials, partials_.size());
}

void MultieventMatcher::Prune(Timestamp watermark) {
  Timestamp cutoff = watermark - horizon_;
  for (auto it = partials_.begin(); it != partials_.end();) {
    bool dead = it->first_ts < cutoff;
    // An ordered partial whose next step has a gap bound is dead once the
    // bound has lapsed — nothing arriving later can extend it.
    if (!dead && aq_->ordered && it->filled_count > 0) {
      size_t step = static_cast<size_t>(it->next_step);
      if (step > 0 && step - 1 < aq_->temporal_gaps.size()) {
        Duration gap = aq_->temporal_gaps[step - 1];
        if (gap > 0 && watermark - it->last_ts > gap) dead = true;
      }
    }
    if (dead) {
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace saql
