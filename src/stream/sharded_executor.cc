#include "stream/sharded_executor.h"

#include <algorithm>
#include <chrono>

namespace saql {

namespace {

/// How long a waiting side of the fork-join keeps polling before it sleeps:
/// longer than the session thread's usual work between two steps (hashing
/// a push, merging closed windows), so a busy stream never pays a wake-up.
constexpr std::chrono::microseconds kSpinBudget{1000};

/// Returns the first value of `a` that satisfies `ready`. Polls for up to
/// kSpinBudget — yielding, so a poller never holds a core another lane
/// needs when lanes outnumber cores — then sleeps on the atomic until it
/// changes.
template <typename Ready>
uint32_t Await(const std::atomic<uint32_t>& a, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (uint32_t i = 1;; ++i) {
    const uint32_t v = a.load();
    if (ready(v)) return v;
    if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) {
      a.wait(v);
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

ShardedStreamExecutor::ShardedStreamExecutor(Options options)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.num_shards > kMaxShards) options_.num_shards = kMaxShards;
  lanes_.reserve(options_.num_shards + 1);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    lanes_.push_back(std::make_unique<Lane>(options_.executor, i));
  }
}

ShardedStreamExecutor::~ShardedStreamExecutor() {
  // A session that dies mid-stream must not leak running workers.
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
    lanes_.push_back(std::make_unique<Lane>(options_.executor, lane));
    if (streaming_) lanes_[lane]->executor.BeginStream();
  }
  lanes_[lane]->executor.Subscribe(processor);
}

void ShardedStreamExecutor::Unsubscribe(size_t lane,
                                        EventProcessor* processor) {
  if (lane < lanes_.size()) lanes_[lane]->executor.Unsubscribe(processor);
}

void ShardedStreamExecutor::BeginStream() {
  if (streaming_ || ran_) return;
  streaming_ = true;
  // Every lane begins on this thread; thread creation then publishes the
  // built dispatch indexes to the workers.
  for (auto& lane : lanes_) lane->executor.BeginStream();
  workers_.reserve(options_.num_shards - 1);
  for (size_t s = 1; s < options_.num_shards; ++s) {
    Lane* lane = lanes_[s].get();
    workers_.emplace_back([this, lane] { WorkerMain(lane); });
  }
}

void ShardedStreamExecutor::WorkerMain(Lane* lane) {
  uint32_t seen = 0;
  for (;;) {
    seen = Await(step_seq_, [seen](uint32_t v) { return v != seen; });
    const StepKind kind = step_;
    RunLane(*lane, /*whole_batch=*/false);
    if (running_.fetch_sub(1) == 1) {
      running_.notify_one();
    }
    if (kind == StepKind::kFinish) return;
  }
}

void ShardedStreamExecutor::RunLane(Lane& lane, bool whole_batch) {
  switch (step_) {
    case StepKind::kBatch:
      if (whole_batch) {
        lane.executor.ProcessBatch(batch_, batch_size_);
      } else {
        lane.executor.ProcessRefs(lane.refs);
      }
      break;
    case StepKind::kWatermark:
      // The *input* watermark, not the lane's own max event time — see the
      // watermark rule in the class comment.
      lane.executor.AdvanceWatermark(pushed_watermark_);
      break;
    case StepKind::kFinish:
      lane.executor.FinishStream();
      break;
    case StepKind::kCall:
      (*call_)(lane.index);
      break;
  }
}

void ShardedStreamExecutor::RunStep(StepKind kind) {
  step_ = kind;
  if (!workers_.empty()) {
    running_.store(static_cast<uint32_t>(workers_.size()));
    step_seq_.fetch_add(1);
    step_seq_.notify_all();
  }
  RunLane(*lanes_[0], /*whole_batch=*/workers_.empty());
  if (!workers_.empty()) {
    Await(running_, [](uint32_t v) { return v == 0; });
  }
  // Lane N runs only once the shard lanes are done with the batch: no two
  // lanes ever fill one event's symbol memo at the same time.
  const size_t n = options_.num_shards;
  if (lanes_.size() <= n || kind == StepKind::kCall) return;
  if (kind != StepKind::kBatch || lanes_[n]->executor.num_subscribers() > 0) {
    RunLane(*lanes_[n], /*whole_batch=*/true);
  }
}

void ShardedStreamExecutor::PushBatch(Event* events, size_t count) {
  if (!streaming_ || count == 0) return;
  ++splitter_stats_.input_batches;
  splitter_stats_.input_events += count;
  const size_t n = options_.num_shards;
  if (n > 1) {
    // The splitter only hashes: each shard lane reads its events in place.
    for (size_t s = 0; s < n; ++s) lanes_[s]->refs.clear();
    for (size_t k = 0; k < count; ++k) {
      lanes_[SubjectKeyShard(events[k], n)]->refs.push_back(&events[k]);
    }
  }
  batch_ = events;
  batch_size_ = count;
  RunStep(StepKind::kBatch);
  for (size_t s = 0; s < n; ++s) {
    input_max_ts_ =
        std::max(input_max_ts_, lanes_[s]->executor.max_event_ts());
  }
}

bool ShardedStreamExecutor::AdvanceWatermark(Timestamp ts) {
  if (!streaming_ || ts == INT64_MIN || ts <= pushed_watermark_) {
    return false;
  }
  pushed_watermark_ = ts;
  // Every lane gets the advanced input watermark, even when it received
  // no events — a quiet shard must keep closing windows.
  RunStep(StepKind::kWatermark);
  return true;
}

void ShardedStreamExecutor::FinishStream() {
  if (!streaming_) return;
  streaming_ = false;
  ran_ = true;
  RunStep(StepKind::kFinish);  // the workers return after this step
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ShardedStreamExecutor::RunOnShards(
    const std::function<void(size_t lane)>& fn) {
  if (!streaming_) return;
  call_ = &fn;
  RunStep(StepKind::kCall);
  call_ = nullptr;
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
