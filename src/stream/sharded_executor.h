#ifndef SAQL_STREAM_SHARDED_EXECUTOR_H_
#define SAQL_STREAM_SHARDED_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/event.h"
#include "core/time_util.h"
#include "stream/event_source.h"
#include "stream/stream_executor.h"

namespace saql {

/// Hash-partitioned parallel stream execution: the caller's thread (the
/// splitter — a session's push thread) routes each event of the totally
/// ordered input by its subject entity key to one of N shard lanes, and
/// each lane runs its own `StreamExecutor` — with its own subscriber
/// replicas — on a dedicated thread. An optional *global lane*
/// additionally receives every event in input order, for subscribers whose
/// semantics cannot be partitioned (multi-event joins across entities,
/// count windows, alert cooldowns).
///
/// **One lane runs inline.** With `num_shards == 1` there is nothing to
/// partition: the lane (and a global lane, if one is subscribed) runs on
/// the caller's thread, with no thread, no queue and no copy. `PushBatch`
/// hands the caller's own buffer to the lane's `ProcessBatch`;
/// `AdvanceWatermark` and `FinishStream` apply at once and fire the
/// progress hooks on the caller's thread; `Quiesce` has nothing to wait
/// for. The mode follows from the lane count alone.
///
/// Watermark rule: every lane (shard and global) is advanced with the
/// watermark of the *input* stream — the max event time the splitter has
/// pushed — not with the lane's own max event time. Each shard substream
/// is a timestamp-ordered subsequence of the input, so the input watermark
/// is always ≥ any lane-local watermark and closes the same windows, just
/// without lag on shards that go quiet. This is also what lets a
/// downstream merge stage align per-shard window closes: when every lane
/// has observed watermark W, every window ending at or before W has closed
/// on every shard.
///
/// With threaded lanes, the splitter copies events into per-lane batches
/// (the caller may reuse its buffer as soon as `PushBatch` returns, while
/// lanes are still draining earlier batches). Within a lane, delivery is
/// the same routed zero-copy path as the single-threaded executor.
/// Interning happens once, on the splitter, before partitioning.
///
/// Alert ordering and cross-shard aggregate merging are the subscriber
/// layer's concern (see `SaqlEngine::Session`); this class only guarantees
/// per-lane event order, the watermark rule above, and that each event
/// reaches exactly one shard (plus the global lane when present).
class ShardedStreamExecutor {
 public:
  /// Upper bound on lanes: each lane of a multi-lane executor is a real
  /// thread; a runaway shard count must not abort the process on thread
  /// exhaustion. Drivers (engine, CLI) clamp with the same constant so
  /// replica wiring and lane count always agree.
  static constexpr size_t kMaxShards = 256;

  struct Options {
    /// Number of hash partitions (shard lanes); clamped to
    /// [1, kMaxShards]. 1 = the inline lane (see the class comment).
    size_t num_shards = 2;
    /// Per-lane executor options.
    StreamExecutor::Options executor;
    /// Max queued batches per threaded lane before the splitter blocks
    /// (backpressure, bounds memory when one shard lags).
    size_t queue_capacity = 8;
  };

  /// Maps an event to a shard index in [0, num_shards). The default hashes
  /// the subject entity key (agent id, subject pid) — all events *acted* by
  /// one process land on one shard.
  using Partitioner = std::function<size_t(const Event&, size_t num_shards)>;

  explicit ShardedStreamExecutor(Options options);
  ~ShardedStreamExecutor();

  ShardedStreamExecutor(const ShardedStreamExecutor&) = delete;
  ShardedStreamExecutor& operator=(const ShardedStreamExecutor&) = delete;

  /// Registers a processor on shard `shard`'s lane. Processors must be
  /// distinct per shard (they run on different threads) and outlive the
  /// stream (or their `Unsubscribe`). Legal before `BeginStream`, or
  /// mid-stream under `Quiesce` (see below): the lane rebuilds its
  /// dispatch index before the next batch, so a processor attached at
  /// time T sees only events pushed after T.
  void SubscribeShard(size_t shard, EventProcessor* processor);

  /// Registers a processor on the global lane (created on first use): it
  /// sees every event, in input order, exactly like a single-threaded
  /// executor would. When the stream is already running, the lane starts
  /// on the spot (call under `Quiesce`); it observes the stream from this
  /// point on.
  void SubscribeGlobal(EventProcessor* processor);

  /// Removes a processor from its lane. Mid-stream removal is legal only
  /// while the pipeline is quiesced (`Quiesce` returned and nothing has
  /// been pushed since).
  void UnsubscribeShard(size_t shard, EventProcessor* processor);
  void UnsubscribeGlobal(EventProcessor* processor);

  /// Replaces the default subject-entity-key partitioner.
  void SetPartitioner(Partitioner partitioner);

  /// Observers of lane progress, invoked on the lane's thread (the
  /// caller's thread for the inline lane) *after* the subscribers'
  /// callbacks returned: `watermark(shard, ts)` when a shard lane applied
  /// an advanced input watermark (every window close for windows ≤ ts has
  /// already fired), `finished(shard)` after a shard lane flushed
  /// end-of-stream. This is what a cross-shard merge stage aligns on;
  /// hooks are not subscribers, so they never appear in the lanes'
  /// delivery/skip accounting. Every hook is optional.
  struct ProgressHooks {
    std::function<void(size_t shard, Timestamp ts)> watermark;
    std::function<void(size_t shard)> finished;
    /// Global-lane progress (same semantics, no shard index). The
    /// cross-shard merge never aligns on the global lane, but a session's
    /// ordered alert release does.
    std::function<void(Timestamp ts)> global_watermark;
    std::function<void()> global_finished;
  };
  void SetProgressHooks(ProgressHooks hooks);

  // Streaming (push-driven) interface, driven by the engine's session
  // API. All of it must be called from one thread (the splitter/session
  // thread).

  /// Starts the lanes (threads, unless the lane runs inline). Call once,
  /// after the initial Subscribe calls.
  void BeginStream();

  /// Interns and hash-partitions one batch onto the lane queues, plus a
  /// copy to the global lane when present. Events are annotated in place
  /// (symbol ids); the buffer may be reused as soon as the call returns
  /// (threaded lanes receive copies; the inline lane has processed the
  /// caller's buffer by then). Blocks when a lane queue is full
  /// (backpressure).
  void PushBatch(Event* events, size_t count);

  /// Block-native push: materializes the block's rows (columnar blocks
  /// arrive pre-interned from their dictionary) and partitions them.
  /// Empty blocks are ignored.
  void PushBlock(EventBlock* block);

  /// Enqueues watermark `ts` to every lane (shard + global) when it
  /// advances the input watermark; returns whether it did. The inline
  /// lane applies it before returning.
  bool AdvanceWatermark(Timestamp ts);

  /// Blocks until every lane has drained its queue and gone idle (the
  /// inline lane always is). While quiesced — i.e. until the next
  /// PushBatch/AdvanceWatermark — the caller may mutate lane subscriptions
  /// (Subscribe/Unsubscribe) and subscriber state without racing the lane
  /// threads.
  void Quiesce();

  /// Closes the lane queues, joins all lane threads (each lane flushes
  /// end-of-stream first; the inline lane flushes on the caller's thread).
  /// Call once; the instance cannot be restarted.
  void FinishStream();

  /// Max event timestamp pushed so far (INT64_MIN before any).
  Timestamp input_max_ts() const { return input_max_ts_; }

  /// Default partitioner: FNV-1a over (agent_id, subject.pid).
  static size_t SubjectKeyShard(const Event& event, size_t num_shards);

  struct SplitterStats {
    uint64_t input_events = 0;
    uint64_t input_batches = 0;
  };

  const SplitterStats& splitter_stats() const { return splitter_stats_; }
  size_t num_shards() const { return lanes_.size(); }
  bool has_global_lane() const { return global_lane_ != nullptr; }

  /// Per-lane executor statistics.
  const ExecutorStats& shard_stats(size_t shard) const;
  /// Global-lane statistics; null when no global processor subscribed.
  const ExecutorStats* global_stats() const;

  /// Element-wise sum over all lanes (shards + global). Routed-skip parity
  /// holds lane by lane — deliveries + routed_skips equals what broadcast
  /// delivery on that lane would have delivered — so it also holds for the
  /// sum.
  ExecutorStats merged_stats() const;

 private:
  /// One batch handed to a lane: the events (owned) and the input-stream
  /// watermark as of the end of the batch.
  struct LaneBatch {
    EventBatch events;
    Timestamp watermark = INT64_MIN;
  };

  /// A lane: executor + (for threaded lanes) a bounded queue. The thread
  /// pops batches until the queue closes, then finishes the stream; the
  /// inline lane is driven directly. `index` is set for shard lanes; the
  /// global lane reports through the hooks' global callbacks.
  struct Lane {
    explicit Lane(StreamExecutor::Options opts) : executor(opts) {}

    void Push(LaneBatch&& batch, size_t capacity);
    void Close();
    /// Blocks until the queue is empty and the thread is between batches.
    void WaitIdle();
    void ThreadMain();
    /// Applies input watermark `ts`; reports it when it advanced.
    void ApplyWatermark(Timestamp ts);
    /// Flushes end-of-stream and reports it.
    void Finish();

    StreamExecutor executor;
    std::mutex mu;
    std::condition_variable can_push;
    std::condition_variable can_pop;
    std::condition_variable idle;
    std::deque<LaneBatch> queue;
    bool closed = false;
    bool busy = false;  ///< thread currently processing a popped batch
    size_t index = 0;
    bool is_global = false;
    bool started = false;  ///< thread spawned, or inline stream begun
    const ProgressHooks* hooks = nullptr;
  };

  Lane* EnsureGlobalLane();
  /// Begins the lane's stream: on a new thread, or at once when inline.
  void StartLane(Lane* lane);

  Options options_;
  /// One lane, run on the caller's thread (see the class comment).
  bool inline_ = false;
  Partitioner partitioner_;
  ProgressHooks hooks_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<Lane> global_lane_;
  std::vector<std::thread> threads_;
  /// Per-lane staging buffers of threaded lanes, reused across PushBatch
  /// calls.
  std::vector<EventBatch> staged_;
  SplitterStats splitter_stats_;
  Timestamp input_max_ts_ = INT64_MIN;
  Timestamp pushed_watermark_ = INT64_MIN;
  bool streaming_ = false;  ///< between BeginStream and FinishStream
  bool ran_ = false;
};

}  // namespace saql

#endif  // SAQL_STREAM_SHARDED_EXECUTOR_H_
