#include "engine/shard_merge.h"

#include <limits>

namespace saql {

size_t ShardMergeStage::RegisterQuery(CompiledQuery* merge_replica) {
  QueryState qs;
  qs.replica = merge_replica;
  qs.outboxes.resize(num_shards_);
  queries_.push_back(std::move(qs));
  return queries_.size() - 1;
}

void ShardMergeStage::RemoveQuery(size_t query) {
  QueryState& qs = queries_[query];
  qs.replica = nullptr;
  for (std::vector<Export>& outbox : qs.outboxes) outbox.clear();
  qs.pending.clear();
}

void ShardMergeStage::AddPartials(
    size_t shard, size_t query, const TimeWindow& window,
    std::vector<StateMaintainer::PartialGroup>& groups) {
  QueryState& qs = queries_[query];
  if (qs.replica == nullptr) return;  // removed mid-stream
  qs.outboxes[shard].push_back(Export{window, std::move(groups)});
}

void ShardMergeStage::FoldOutboxes(QueryState& qs) {
  for (std::vector<Export>& outbox : qs.outboxes) {
    for (Export& e : outbox) {
      PendingWindow& pw = qs.pending[{e.window.end, e.window.start}];
      pw.window = e.window;
      for (StateMaintainer::PartialGroup& pg : e.groups) {
        auto [it, inserted] = pw.groups.try_emplace(pg.group_key);
        if (inserted) {
          it->second = std::move(pg);
        } else {
          StateMaintainer::MergePartial(&it->second, pg);
        }
      }
    }
    outbox.clear();
  }
}

void ShardMergeStage::AdvanceWatermark(size_t part, Timestamp ts) {
  for (size_t q = part; q < queries_.size(); q += num_shards_) {
    QueryState& qs = queries_[q];
    if (qs.replica == nullptr) continue;  // removed mid-stream
    FoldOutboxes(qs);
    while (!qs.pending.empty() && qs.pending.begin()->first.first <= ts) {
      PendingWindow pw = std::move(qs.pending.begin()->second);
      qs.pending.erase(qs.pending.begin());
      // std::map iteration gives group-key order — the same deterministic
      // order a single-threaded close (StateMaintainer::CloseBucket)
      // produces.
      std::vector<StateMaintainer::ClosedGroup> groups;
      groups.reserve(pw.groups.size());
      for (auto& [key, pg] : pw.groups) {
        groups.push_back(qs.replica->FinishPartialGroup(pw.window, pg));
      }
      qs.replica->ConsumeMergedWindow(pw.window, groups);
    }
  }
}

void ShardMergeStage::Finish() {
  for (size_t part = 0; part < num_shards_; ++part) {
    AdvanceWatermark(part, std::numeric_limits<Timestamp>::max());
  }
}

}  // namespace saql
