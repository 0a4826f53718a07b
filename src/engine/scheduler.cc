#include "engine/scheduler.h"

#include <algorithm>

namespace saql {

void QueryGroup::OnBatch(const EventRefs& events) {
  stats_.events_in += events.size();
  if (members_.empty()) return;
  // Run the shared master filter over the whole batch first, then hand the
  // surviving slice to each member in one batched call.
  const CompiledQuery* master = members_.front();
  forward_scratch_.clear();
  for (const Event* e : events) {
    if (master->StructuralMatchAny(*e)) forward_scratch_.push_back(e);
  }
  if (forward_scratch_.empty()) return;
  stats_.events_forwarded += forward_scratch_.size();
  if (index_ != nullptr) {
    DeliverIndexed(forward_scratch_);
    return;
  }
  for (CompiledQuery* q : members_) {
    stats_.member_deliveries += forward_scratch_.size();
    for (const Event* e : forward_scratch_) q->OnEvent(*e);
  }
}

void QueryGroup::DeliverIndexed(const EventRefs& forwarded) {
  const size_t n = members_.size();
  const std::vector<uint64_t>& all = index_->all_members();
  member_matches_.resize(n);
  for (EventRefs& m : member_matches_) m.clear();
  member_failed_global_.assign(n, 0);
  for (const Event* e : forwarded) {
    index_->Match(*e, &match_scratch_);
    // Per-member accounting iterates only the *exceptional* bits: global
    // failures and full matches are both sparse in the many-query regime,
    // so the common case costs a handful of word compares, not one
    // counter update per member per event.
    for (size_t w = 0; w < all.size(); ++w) {
      uint64_t failed = all[w] & ~match_scratch_.passed_global[w];
      while (failed != 0) {
        size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(failed));
        ++member_failed_global_[i];
        failed &= failed - 1;
      }
      uint64_t matched = match_scratch_.matched[w];
      while (matched != 0) {
        size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(matched));
        member_matches_[i].push_back(e);
        matched &= matched - 1;
      }
    }
  }
  // Member-major delivery, exactly like the brute-force OnBatch loop, so
  // alert emission order is identical with the index on or off.
  for (size_t i = 0; i < n; ++i) {
    stats_.member_deliveries += member_matches_[i].size();
    members_[i]->OnIndexedDelivery(forwarded.size(), member_failed_global_[i],
                                   member_matches_[i]);
  }
}

RoutingInterest QueryGroup::Interest() const {
  RoutingInterest interest;
  if (members_.empty()) return interest;  // default: everything (harmless)
  // The envelope is the union of the master's per-pattern shapes — exactly
  // the set of (object type, op) pairs StructuralMatchAny can accept, so
  // routed delivery forwards the same events the master filter would.
  for (const CompiledPattern& p : members_.front()->patterns()) {
    interest.Add(p.object_type(), p.ops());
  }
  return interest;
}

void QueryGroup::OnWatermark(Timestamp ts) {
  for (CompiledQuery* q : members_) {
    q->OnWatermark(ts);
  }
}

void QueryGroup::OnFinish() {
  for (CompiledQuery* q : members_) {
    q->OnFinish();
  }
}

void ConcurrentQueryScheduler::AddQuery(CompiledQuery* query) {
  queries_.push_back(query);
}

void ConcurrentQueryScheduler::BuildGroups() {
  groups_.clear();
  by_signature_.clear();
  if (!options_.enable_grouping) {
    for (CompiledQuery* q : queries_) {
      auto group = std::make_unique<QueryGroup>(q->name());
      group->AddMember(q);
      groups_.push_back(std::move(group));
    }
    return;  // one member per group: nothing for an index to share
  }
  for (CompiledQuery* q : queries_) {
    std::string sig = q->GroupSignature();
    auto it = by_signature_.find(sig);
    if (it == by_signature_.end()) {
      auto group = std::make_unique<QueryGroup>(sig);
      it = by_signature_.emplace(sig, group.get()).first;
      groups_.push_back(std::move(group));
    }
    it->second->AddMember(q);
  }
  if (options_.enable_member_index) {
    for (auto& g : groups_) {
      if (g->size() >= options_.min_index_members) g->BuildIndex();
    }
  }
}

void ConcurrentQueryScheduler::ReindexGroup(QueryGroup* group) {
  if (options_.enable_member_index &&
      group->size() >= options_.min_index_members) {
    group->BuildIndex();
  } else {
    group->DropIndex();
  }
}

QueryGroup* ConcurrentQueryScheduler::AddQueryDynamic(CompiledQuery* query,
                                                      bool* created) {
  queries_.push_back(query);
  *created = false;
  if (!options_.enable_grouping) {
    auto group = std::make_unique<QueryGroup>(query->name());
    group->AddMember(query);
    groups_.push_back(std::move(group));
    *created = true;
    return groups_.back().get();
  }
  std::string sig = query->GroupSignature();
  auto it = by_signature_.find(sig);
  if (it == by_signature_.end()) {
    auto group = std::make_unique<QueryGroup>(sig);
    it = by_signature_.emplace(sig, group.get()).first;
    groups_.push_back(std::move(group));
    *created = true;
  }
  it->second->AddMember(query);
  ReindexGroup(it->second);
  return it->second;
}

bool ConcurrentQueryScheduler::RemoveQuery(
    CompiledQuery* query, std::unique_ptr<QueryGroup>* emptied) {
  emptied->reset();
  auto qit = std::find(queries_.begin(), queries_.end(), query);
  if (qit == queries_.end()) return false;
  queries_.erase(qit);
  for (auto git = groups_.begin(); git != groups_.end(); ++git) {
    QueryGroup* g = git->get();
    if (!g->RemoveMember(query)) continue;
    if (g->size() == 0) {
      by_signature_.erase(g->signature());
      *emptied = std::move(*git);
      groups_.erase(git);
    } else {
      ReindexGroup(g);
    }
    return true;
  }
  return true;
}

size_t ConcurrentQueryScheduler::num_indexed_groups() const {
  size_t n = 0;
  for (const auto& g : groups_) {
    if (g->index() != nullptr) ++n;
  }
  return n;
}

std::vector<QueryGroup*> ConcurrentQueryScheduler::groups() {
  std::vector<QueryGroup*> out;
  out.reserve(groups_.size());
  for (auto& g : groups_) out.push_back(g.get());
  return out;
}

double ConcurrentQueryScheduler::ForwardRatio() const {
  uint64_t in = 0, forwarded = 0;
  for (const auto& g : groups_) {
    in += g->stats().events_in;
    forwarded += g->stats().events_forwarded;
  }
  if (in == 0) return 0.0;
  return static_cast<double>(forwarded) / static_cast<double>(in);
}

}  // namespace saql
