#include "stream/sharded_executor.h"

#include <algorithm>

namespace saql {

ShardedStreamExecutor::ShardedStreamExecutor(Options options)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.num_shards > kMaxShards) options_.num_shards = kMaxShards;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  inline_ = options_.num_shards == 1;
  lanes_.reserve(options_.num_shards + 1);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    lanes_.push_back(std::make_unique<Lane>(options_.executor, i, &hooks_));
  }
  if (!inline_) staged_.resize(options_.num_shards + 1);
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

void ShardedStreamExecutor::Subscribe(size_t lane,
                                      EventProcessor* processor) {
  if (lane == options_.num_shards && lanes_.size() == lane) {
    lanes_.push_back(std::make_unique<Lane>(options_.executor, lane, &hooks_));
  }
  Lane* l = lanes_[lane].get();
  // Subscribe before a new lane's thread can exist: its BeginStream reads
  // the subscriber list unsynchronized, so the thread must start strictly
  // after (thread creation is the happens-before edge).
  l->executor.Subscribe(processor);
  if (streaming_ && !l->started) StartLane(l);
}

void ShardedStreamExecutor::Unsubscribe(size_t lane,
                                        EventProcessor* processor) {
  if (lane < lanes_.size()) lanes_[lane]->executor.Unsubscribe(processor);
}

void ShardedStreamExecutor::SetProgressHooks(ProgressHooks hooks) {
  hooks_ = std::move(hooks);
}

void ShardedStreamExecutor::StartLane(Lane* lane) {
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
  if (hooks->watermark) hooks->watermark(index, ts);
}

void ShardedStreamExecutor::Lane::Finish() {
  executor.FinishStream();
  if (hooks->finished) hooks->finished(index);
}

void ShardedStreamExecutor::BeginStream() {
  if (streaming_ || ran_) return;
  streaming_ = true;
  threads_.reserve(options_.num_shards + 1);
  for (auto& lane : lanes_) StartLane(lane.get());
}

void ShardedStreamExecutor::PushBatch(Event* events, size_t count) {
  if (!streaming_ || count == 0) return;
  ++splitter_stats_.input_batches;
  splitter_stats_.input_events += count;
  if (inline_) {
    // The caller's buffer is every lane's batch.
    for (auto& lane : lanes_) lane->executor.ProcessBatch(events, count);
    input_max_ts_ =
        std::max(input_max_ts_, lanes_[0]->executor.max_event_ts());
    return;
  }
  const size_t n = options_.num_shards;
  // The splitter only hashes and copies: each lane interns, on first
  // read, the symbols its queries compare, in its own copies. A lane with
  // no subscribers is staged nothing: it gets no copies, only watermarks.
  for (EventBatch& s : staged_) s.clear();
  for (size_t k = 0; k < count; ++k) {
    const Event& e = events[k];
    if (e.ts > input_max_ts_) input_max_ts_ = e.ts;
    const size_t s = SubjectKeyShard(e, n);
    if (lanes_[s]->subscribed()) staged_[s].push_back(e);
  }
  // Lane N sees the whole batch.
  if (lanes_.size() > n && lanes_[n]->subscribed()) {
    staged_[n].assign(events, events + count);
  }
  // The batch carries the last *advanced* watermark (a no-op for the
  // lane's executor): watermark progress is explicit, via
  // AdvanceWatermark, which also reaches lanes this batch skipped.
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (staged_[i].empty()) continue;
    lanes_[i]->Push(LaneBatch{std::move(staged_[i]), pushed_watermark_},
                    options_.queue_capacity);
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
  for (auto& lane : lanes_) {
    if (inline_) {
      lane->ApplyWatermark(ts);
    } else {
      lane->Push(LaneBatch{EventBatch{}, ts}, options_.queue_capacity);
    }
  }
  return true;
}

void ShardedStreamExecutor::Quiesce() {
  if (!streaming_ || inline_) return;
  for (auto& lane : lanes_) lane->WaitIdle();
}

void ShardedStreamExecutor::FinishStream() {
  if (!streaming_) return;
  streaming_ = false;
  ran_ = true;
  if (inline_) {
    for (auto& lane : lanes_) lane->Finish();
    return;
  }
  for (auto& lane : lanes_) lane->Close();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ShardedStreamExecutor::PushBlock(EventBlock* block) {
  if (block->empty()) return;
  PushBatch(block->MutableRows(), block->size());
}

const ExecutorStats* ShardedStreamExecutor::lane_stats(size_t lane) const {
  return lane < lanes_.size() ? &lanes_[lane]->executor.stats() : nullptr;
}

ExecutorStats ShardedStreamExecutor::merged_stats() const {
  ExecutorStats out;
  for (const auto& lane : lanes_) {
    const ExecutorStats& s = lane->executor.stats();
    out.events += s.events;
    out.deliveries += s.deliveries;
    out.batches += s.batches;
    out.routed_skips += s.routed_skips;
    out.watermarks += s.watermarks;
  }
  return out;
}

}  // namespace saql
