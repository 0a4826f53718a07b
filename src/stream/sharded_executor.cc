#include "stream/sharded_executor.h"

#include <algorithm>

#include "core/interner.h"

namespace saql {

ShardedStreamExecutor::ShardedStreamExecutor(Options options)
    : options_(options), partitioner_(&SubjectKeyShard) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.num_shards > kMaxShards) options_.num_shards = kMaxShards;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  inline_ = options_.num_shards == 1;
  lanes_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    lanes_.push_back(std::make_unique<Lane>(options_.executor));
  }
  if (!inline_) staged_.resize(options_.num_shards);
}

ShardedStreamExecutor::~ShardedStreamExecutor() {
  // A session that dies mid-stream must not leak running lane threads.
  if (streaming_) FinishStream();
}

size_t ShardedStreamExecutor::SubjectKeyShard(const Event& event,
                                              size_t num_shards) {
  // FNV-1a over the subject entity key (agent id, subject pid) — the same
  // identity `EntityKeyOf` uses for subjects, without building the string.
  uint64_t h = 1469598103934665603ull;
  for (char c : event.agent_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  uint64_t pid = static_cast<uint64_t>(event.subject.pid);
  for (int i = 0; i < 8; ++i) {
    h ^= (pid >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % num_shards);
}

void ShardedStreamExecutor::SubscribeShard(size_t shard,
                                           EventProcessor* processor) {
  lanes_[shard]->executor.Subscribe(processor);
}

void ShardedStreamExecutor::SubscribeGlobal(EventProcessor* processor) {
  Lane* lane = EnsureGlobalLane();
  // Subscribe before the lane thread can exist: its BeginStream reads the
  // subscriber list unsynchronized, so the thread must start strictly
  // after (thread creation is the happens-before edge).
  lane->executor.Subscribe(processor);
  if (streaming_ && !lane->started) StartLane(lane);
}

void ShardedStreamExecutor::UnsubscribeShard(size_t shard,
                                             EventProcessor* processor) {
  lanes_[shard]->executor.Unsubscribe(processor);
}

void ShardedStreamExecutor::UnsubscribeGlobal(EventProcessor* processor) {
  if (global_lane_) global_lane_->executor.Unsubscribe(processor);
}

void ShardedStreamExecutor::SetPartitioner(Partitioner partitioner) {
  partitioner_ = std::move(partitioner);
}

void ShardedStreamExecutor::SetProgressHooks(ProgressHooks hooks) {
  hooks_ = std::move(hooks);
}

ShardedStreamExecutor::Lane* ShardedStreamExecutor::EnsureGlobalLane() {
  if (!global_lane_) {
    global_lane_ = std::make_unique<Lane>(options_.executor);
    global_lane_->is_global = true;
  }
  return global_lane_.get();
}

void ShardedStreamExecutor::StartLane(Lane* lane) {
  lane->hooks = &hooks_;
  lane->started = true;
  if (inline_) {
    lane->executor.BeginStream();
  } else {
    threads_.emplace_back([lane] { lane->ThreadMain(); });
  }
}

void ShardedStreamExecutor::Lane::Push(LaneBatch&& batch, size_t capacity) {
  {
    std::unique_lock<std::mutex> lock(mu);
    can_push.wait(lock, [&] { return queue.size() < capacity; });
    queue.push_back(std::move(batch));
  }
  can_pop.notify_one();
}

void ShardedStreamExecutor::Lane::Close() {
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  can_pop.notify_all();
}

void ShardedStreamExecutor::Lane::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu);
  idle.wait(lock, [&] { return queue.empty() && !busy; });
}

void ShardedStreamExecutor::Lane::ThreadMain() {
  executor.BeginStream();
  LaneBatch batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu);
      can_pop.wait(lock, [&] { return !queue.empty() || closed; });
      if (queue.empty()) break;  // closed and drained
      batch = std::move(queue.front());
      queue.pop_front();
      busy = true;
    }
    can_push.notify_one();
    executor.ProcessBatch(batch.events.data(), batch.events.size());
    ApplyWatermark(batch.watermark);
    {
      std::lock_guard<std::mutex> lock(mu);
      busy = false;
      if (queue.empty()) idle.notify_all();
    }
  }
  Finish();
}

void ShardedStreamExecutor::Lane::ApplyWatermark(Timestamp ts) {
  // The *input* watermark, not the lane's own max event time — see the
  // watermark rule in the class comment.
  if (!executor.AdvanceWatermark(ts)) return;
  if (is_global) {
    if (hooks->global_watermark) hooks->global_watermark(ts);
  } else if (hooks->watermark) {
    hooks->watermark(index, ts);
  }
}

void ShardedStreamExecutor::Lane::Finish() {
  executor.FinishStream();
  if (is_global) {
    if (hooks->global_finished) hooks->global_finished();
  } else if (hooks->finished) {
    hooks->finished(index);
  }
}

void ShardedStreamExecutor::BeginStream() {
  if (streaming_ || ran_) return;
  streaming_ = true;
  threads_.reserve(lanes_.size() + 1);
  for (size_t s = 0; s < lanes_.size(); ++s) {
    lanes_[s]->index = s;
    StartLane(lanes_[s].get());
  }
  if (global_lane_) StartLane(global_lane_.get());
}

void ShardedStreamExecutor::PushBatch(Event* events, size_t count) {
  if (!streaming_ || count == 0) return;
  ++splitter_stats_.input_batches;
  splitter_stats_.input_events += count;
  if (inline_) {
    // The caller's buffer is the lane batch; the lane interns it.
    StreamExecutor& lane = lanes_[0]->executor;
    lane.ProcessBatch(events, count);
    if (global_lane_) global_lane_->executor.ProcessBatch(events, count);
    input_max_ts_ = std::max(input_max_ts_, lane.max_event_ts());
    return;
  }
  const size_t n = lanes_.size();
  // Intern once, in the caller's buffer, before events fan out: replayed
  // buffers (VectorEventSource) keep the memoization, and every copy
  // below carries the symbol ids with it.
  InternEventSpan(events, count);
  for (EventBatch& s : staged_) s.clear();
  for (size_t k = 0; k < count; ++k) {
    const Event& e = events[k];
    if (e.ts > input_max_ts_) input_max_ts_ = e.ts;
    staged_[partitioner_(e, n)].push_back(e);
  }
  // The batch carries the last *advanced* watermark (a no-op for the
  // lane's executor): watermark progress is explicit, via
  // AdvanceWatermark, which also reaches lanes this batch skipped.
  for (size_t s = 0; s < n; ++s) {
    if (staged_[s].empty()) continue;
    lanes_[s]->Push(LaneBatch{std::move(staged_[s]), pushed_watermark_},
                    options_.queue_capacity);
    staged_[s] = EventBatch{};
  }
  if (global_lane_) {
    LaneBatch gb;
    gb.events.assign(events, events + count);
    gb.watermark = pushed_watermark_;
    global_lane_->Push(std::move(gb), options_.queue_capacity);
  }
}

bool ShardedStreamExecutor::AdvanceWatermark(Timestamp ts) {
  if (!streaming_ || ts == INT64_MIN || ts <= pushed_watermark_) {
    return false;
  }
  pushed_watermark_ = ts;
  // Every lane gets the advanced input watermark, even when it received
  // no events — a quiet shard must keep closing windows so the merge
  // stage's alignment can progress.
  auto advance = [this, ts](Lane* lane) {
    if (inline_) {
      lane->ApplyWatermark(ts);
    } else {
      lane->Push(LaneBatch{EventBatch{}, ts}, options_.queue_capacity);
    }
  };
  for (auto& lane : lanes_) advance(lane.get());
  if (global_lane_) advance(global_lane_.get());
  return true;
}

void ShardedStreamExecutor::Quiesce() {
  if (!streaming_ || inline_) return;
  for (auto& lane : lanes_) lane->WaitIdle();
  if (global_lane_) global_lane_->WaitIdle();
}

void ShardedStreamExecutor::FinishStream() {
  if (!streaming_) return;
  streaming_ = false;
  ran_ = true;
  if (inline_) {
    for (auto& lane : lanes_) lane->Finish();
    if (global_lane_) global_lane_->Finish();
    return;
  }
  for (auto& lane : lanes_) lane->Close();
  if (global_lane_) global_lane_->Close();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ShardedStreamExecutor::PushBlock(EventBlock* block) {
  if (block->empty()) return;
  PushBatch(block->MutableRows(), block->size());
}

const ExecutorStats& ShardedStreamExecutor::shard_stats(size_t shard) const {
  return lanes_[shard]->executor.stats();
}

const ExecutorStats* ShardedStreamExecutor::global_stats() const {
  return global_lane_ ? &global_lane_->executor.stats() : nullptr;
}

ExecutorStats ShardedStreamExecutor::merged_stats() const {
  ExecutorStats out;
  auto add = [&out](const ExecutorStats& s) {
    out.events += s.events;
    out.deliveries += s.deliveries;
    out.batches += s.batches;
    out.routed_skips += s.routed_skips;
    out.watermarks += s.watermarks;
  };
  for (const auto& lane : lanes_) add(lane->executor.stats());
  if (global_lane_) add(global_lane_->executor.stats());
  return out;
}

}  // namespace saql
