#include "engine/shard_merge.h"

#include <algorithm>
#include <limits>

namespace saql {

ShardMergeStage::ShardMergeStage(size_t num_shards)
    : shard_watermarks_(num_shards, INT64_MIN) {}

size_t ShardMergeStage::RegisterQuery(CompiledQuery* merge_replica) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryState qs;
  qs.replica = merge_replica;
  queries_.push_back(std::move(qs));
  return queries_.size() - 1;
}

void ShardMergeStage::RemoveQuery(size_t query) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_[query].replica = nullptr;
  queries_[query].pending.clear();
}

void ShardMergeStage::AddPartials(
    size_t query, const TimeWindow& window,
    std::vector<StateMaintainer::PartialGroup>& groups) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_[query].replica == nullptr) return;  // removed mid-stream
  PendingWindow& pw =
      queries_[query].pending[{window.end, window.start}];
  pw.window = window;
  for (StateMaintainer::PartialGroup& pg : groups) {
    auto [it, inserted] = pw.groups.try_emplace(pg.group_key);
    if (inserted) {
      it->second = std::move(pg);
    } else {
      StateMaintainer::MergePartial(&it->second, pg);
    }
  }
}

void ShardMergeStage::AdvanceShardWatermark(size_t shard, Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ts <= shard_watermarks_[shard]) return;
  shard_watermarks_[shard] = ts;
  DrainReadyLocked();
}

void ShardMergeStage::FinishShard(size_t shard) {
  AdvanceShardWatermark(shard, std::numeric_limits<Timestamp>::max());
}

void ShardMergeStage::DrainReadyLocked() {
  Timestamp aligned = std::numeric_limits<Timestamp>::max();
  for (Timestamp wm : shard_watermarks_) aligned = std::min(aligned, wm);
  if (aligned == INT64_MIN) return;
  for (QueryState& qs : queries_) {
    if (qs.replica == nullptr) continue;  // removed mid-stream
    while (!qs.pending.empty() &&
           qs.pending.begin()->first.first <= aligned) {
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

}  // namespace saql
