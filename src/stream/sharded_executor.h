#ifndef SAQL_STREAM_SHARDED_EXECUTOR_H_
#define SAQL_STREAM_SHARDED_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/event.h"
#include "core/time_util.h"
#include "stream/event_source.h"
#include "stream/stream_executor.h"

namespace saql {

/// Hash-partitioned parallel stream execution: the caller's thread (a
/// session's push thread) splits each batch of the totally ordered input
/// by subject entity key across N shard lanes, and each lane runs its own
/// `StreamExecutor` — with its own subscriber replicas — over its part.
///
/// **Every call is one synchronous step.** `PushBatch`, `AdvanceWatermark`
/// and `FinishStream` return only after every lane has finished that step,
/// so between calls no lane runs and the caller may subscribe, unsubscribe
/// and read subscriber state freely. Persistent worker threads run shard
/// lanes 1..N-1; one fork-join releases them per step while the caller's
/// thread runs lane 0. At N > 1 `PushBatch` only hashes: each shard lane
/// gets a list of addresses into the caller's buffer (`EventRefs`, reused
/// across pushes) and no event is copied. With `num_shards == 1` there are
/// no workers and no hashing: lane 0 reads the caller's buffer directly on
/// the caller's thread.
///
/// **Lane N is the global lane.** Lanes are indexed 0..N: shard lanes
/// 0..N-1 each receive their partition, and lane N — created on the first
/// subscription to that index — receives every event in input order, for
/// subscribers whose semantics cannot be partitioned (multi-event joins
/// across entities, count windows, alert cooldowns). Lane N runs on the
/// caller's thread *after* the shard lanes joined, over the whole caller
/// batch. That ordering is what keeps the buffer race-free without atomics:
/// lanes fill each event's symbol memo (`Event::syms`) on first read, each
/// event belongs to exactly one shard lane, and lane N never reads an event
/// while a shard lane can still write its memo. A lane N with no
/// subscribers is handed no events; it still receives watermarks. Apart
/// from that, lane N is an ordinary lane: same subscribe calls, same
/// watermarks, same statistics.
///
/// Watermark rule: every lane is advanced with the watermark of the
/// *input* stream — the max event time pushed — not with the lane's own
/// max event time. Each shard substream is a timestamp-ordered subsequence
/// of the input, so the input watermark is always ≥ any lane-local
/// watermark and closes the same windows, just without lag on shards that
/// go quiet. When `AdvanceWatermark(W)` returns, every window ending at or
/// before W has closed on every lane, which is what lets a downstream merge
/// stage evaluate the cross-shard windows it covers.
///
/// Alert ordering and cross-shard aggregate merging are the subscriber
/// layer's concern (see `SaqlEngine::Session`); this class only guarantees
/// per-lane event order, the watermark rule above, and that each event
/// reaches exactly one shard lane (plus lane N when subscribed).
class ShardedStreamExecutor {
 public:
  /// Upper bound on lanes: each shard lane beyond the first is a real
  /// thread; a runaway shard count must not abort the process on thread
  /// exhaustion. Drivers (engine, CLI) clamp with the same constant so
  /// replica wiring and lane count always agree.
  static constexpr size_t kMaxShards = 256;

  struct Options {
    /// Number of hash partitions (shard lanes); clamped to
    /// [1, kMaxShards].
    size_t num_shards = 2;
    /// Per-lane executor options.
    StreamExecutor::Options executor;
  };

  explicit ShardedStreamExecutor(Options options);
  ~ShardedStreamExecutor();

  ShardedStreamExecutor(const ShardedStreamExecutor&) = delete;
  ShardedStreamExecutor& operator=(const ShardedStreamExecutor&) = delete;

  /// Registers a processor on lane `lane`: a shard lane in
  /// [0, num_shards()), or the global lane num_shards(), which is created
  /// by its first subscription. Processors must be distinct per lane
  /// (shard lanes run on different threads) and outlive the stream (or
  /// their `Unsubscribe`). Legal before `BeginStream` or between any two
  /// steps: the lane rebuilds its dispatch index before its next batch, so
  /// a processor attached at time T sees only events pushed after T.
  void Subscribe(size_t lane, EventProcessor* processor);

  /// Removes a processor from its lane (between steps). The lane itself
  /// stays. No-op for a lane that does not exist.
  void Unsubscribe(size_t lane, EventProcessor* processor);

  // Streaming (push-driven) interface, driven by the engine's session
  // API. All of it must be called from one thread.

  /// Starts the shard lanes' worker threads. Call once, after the initial
  /// Subscribe calls.
  void BeginStream();

  /// Delivers one batch: each shard lane its partition, then lane N (when
  /// subscribed) the whole batch. Lanes read the caller's buffer and fill
  /// its symbol memos in place; the buffer is free again when the call
  /// returns.
  void PushBatch(Event* events, size_t count);

  /// Block-native push: materializes the block's rows (columnar blocks
  /// arrive pre-interned from their dictionary) and partitions them.
  /// Empty blocks are ignored.
  void PushBlock(EventBlock* block);

  /// Applies watermark `ts` on every lane (lane N included) when it
  /// advances the input watermark; returns whether it did.
  bool AdvanceWatermark(Timestamp ts);

  /// Flushes end-of-stream on every lane and joins the workers. Call once;
  /// the instance cannot be restarted.
  void FinishStream();

  /// Runs `fn(lane)` for every shard lane 0..num_shards()-1 in one step
  /// (lane 0 on this thread, the others on their workers) and returns when
  /// all are done: spreads work that splits by lane, such as a session's
  /// cross-shard window merge, over the same workers. While streaming.
  void RunOnShards(const std::function<void(size_t lane)>& fn);

  /// Max event timestamp pushed so far (INT64_MIN before any).
  Timestamp input_max_ts() const { return input_max_ts_; }

  /// The shard of an event: FNV-1a over (agent_id, subject.pid) — all
  /// events *acted* by one process land on one shard lane.
  static size_t SubjectKeyShard(const Event& event, size_t num_shards);

  struct SplitterStats {
    uint64_t input_events = 0;
    uint64_t input_batches = 0;
  };

  const SplitterStats& splitter_stats() const { return splitter_stats_; }
  size_t num_shards() const { return options_.num_shards; }

  /// Executor statistics of lane `lane` (lane num_shards() is the global
  /// lane); null for a lane that does not exist (yet).
  const ExecutorStats* lane_stats(size_t lane) const;

  /// Element-wise sum over all lanes. Routed-skip parity holds lane by
  /// lane — deliveries + routed_skips equals what broadcast delivery on
  /// that lane would have delivered — so it also holds for the sum.
  ExecutorStats merged_stats() const;

 private:
  enum class StepKind { kBatch, kWatermark, kFinish, kCall };

  struct Lane {
    Lane(StreamExecutor::Options opts, size_t lane_index)
        : executor(opts), index(lane_index) {}

    StreamExecutor executor;
    const size_t index;
    /// This push's partition (shard lanes at N > 1): addresses into the
    /// caller's buffer, reused across pushes.
    EventRefs refs;
  };

  /// Runs the current step on shard lanes 0..N-1 (lane 0 on this thread,
  /// the others on their workers), then — unless it is a call — on lane N.
  void RunStep(StepKind kind);
  /// Runs the current step on one lane: over the whole caller batch, or
  /// over the lane's `refs`.
  void RunLane(Lane& lane, bool whole_batch);
  /// A shard lane's worker: runs each released step until the finish.
  void WorkerMain(Lane* lane);

  Options options_;
  /// Shard lanes 0..N-1, then lane N once subscribed.
  std::vector<std::unique_ptr<Lane>> lanes_;

  // The current step: written by the caller's thread before the fork,
  // read by the workers after it.
  StepKind step_ = StepKind::kBatch;
  Event* batch_ = nullptr;
  size_t batch_size_ = 0;
  const std::function<void(size_t)>* call_ = nullptr;

  // Fork-join: the caller bumps `step_seq_` to start a step on the
  // workers and waits until `running_` is back to zero. Both sides poll
  // for up to a millisecond before they sleep on the atomic: consecutive
  // steps of a busy stream follow each other faster than a sleeping
  // thread wakes up.
  std::atomic<uint32_t> step_seq_{0};
  std::atomic<uint32_t> running_{0};

  SplitterStats splitter_stats_;
  Timestamp input_max_ts_ = INT64_MIN;
  Timestamp pushed_watermark_ = INT64_MIN;
  bool streaming_ = false;  ///< between BeginStream and FinishStream
  bool ran_ = false;
  /// Run shard lanes 1..N-1 (none at one shard); declared last, after
  /// everything they read.
  std::vector<std::thread> workers_;
};

}  // namespace saql

#endif  // SAQL_STREAM_SHARDED_EXECUTOR_H_
