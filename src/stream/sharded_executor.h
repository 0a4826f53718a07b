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
/// replicas — on a dedicated thread.
///
/// **Lane N is the global lane.** Lanes are indexed 0..N: shard lanes
/// 0..N-1 each receive their partition, and lane N — created on the first
/// subscription to that index — receives every event in input order, for
/// subscribers whose semantics cannot be partitioned (multi-event joins
/// across entities, count windows, alert cooldowns). Apart from what it is
/// handed, lane N is an ordinary lane: same subscribe calls, same
/// watermarks, same progress hooks, same statistics.
///
/// **One shard runs inline.** With `num_shards == 1` there is nothing to
/// partition: the lanes (lane 0, and lane 1 if subscribed) run on the
/// caller's thread, with no thread, no queue and no copy. `PushBatch`
/// hands the caller's own buffer to each lane's `ProcessBatch`;
/// `AdvanceWatermark` and `FinishStream` apply at once and fire the
/// progress hooks on the caller's thread; `Quiesce` has nothing to wait
/// for. The mode follows from the shard count alone.
///
/// Watermark rule: every lane is advanced with the watermark of the
/// *input* stream — the max event time the splitter has pushed — not with
/// the lane's own max event time. Each shard substream is a
/// timestamp-ordered subsequence of the input, so the input watermark is
/// always ≥ any lane-local watermark and closes the same windows, just
/// without lag on shards that go quiet. This is also what lets a
/// downstream merge stage align per-shard window closes: when every shard
/// lane has observed watermark W, every window ending at or before W has
/// closed on every shard.
///
/// With threaded lanes, the splitter copies events into per-lane batches
/// (the caller may reuse its buffer as soon as `PushBatch` returns, while
/// lanes are still draining earlier batches). A threaded lane with no
/// subscribers is handed no events at all; it still receives watermarks.
/// Within a lane, delivery is the same routed zero-copy path as the
/// single-threaded executor. The splitter interns nothing: each lane's
/// queries intern, on first read, the symbols they compare, in that lane's
/// own copies.
///
/// Alert ordering and cross-shard aggregate merging are the subscriber
/// layer's concern (see `SaqlEngine::Session`); this class only guarantees
/// per-lane event order, the watermark rule above, and that each event
/// reaches exactly one shard lane (plus lane N when present).
class ShardedStreamExecutor {
 public:
  /// Upper bound on lanes: each lane of a multi-lane executor is a real
  /// thread; a runaway shard count must not abort the process on thread
  /// exhaustion. Drivers (engine, CLI) clamp with the same constant so
  /// replica wiring and lane count always agree.
  static constexpr size_t kMaxShards = 256;

  struct Options {
    /// Number of hash partitions (shard lanes); clamped to
    /// [1, kMaxShards]. 1 = inline lanes (see the class comment).
    size_t num_shards = 2;
    /// Per-lane executor options.
    StreamExecutor::Options executor;
    /// Max queued batches per threaded lane before the splitter blocks
    /// (backpressure, bounds memory when one shard lags).
    size_t queue_capacity = 8;
  };

  explicit ShardedStreamExecutor(Options options);
  ~ShardedStreamExecutor();

  ShardedStreamExecutor(const ShardedStreamExecutor&) = delete;
  ShardedStreamExecutor& operator=(const ShardedStreamExecutor&) = delete;

  /// Registers a processor on lane `lane`: a shard lane in
  /// [0, num_shards()), or the global lane num_shards(), which is created
  /// by its first subscription. Processors must be distinct per lane
  /// (lanes run on different threads) and outlive the stream (or their
  /// `Unsubscribe`). Legal before `BeginStream`, or mid-stream under
  /// `Quiesce` (see below): the lane rebuilds its dispatch index before
  /// the next batch, so a processor attached at time T sees only events
  /// pushed after T. A lane created mid-stream starts on the spot.
  void Subscribe(size_t lane, EventProcessor* processor);

  /// Removes a processor from its lane. Mid-stream removal is legal only
  /// while the pipeline is quiesced (`Quiesce` returned and nothing has
  /// been pushed since). The lane itself stays. No-op for a lane that
  /// does not exist.
  void Unsubscribe(size_t lane, EventProcessor* processor);

  /// Observers of lane progress, invoked on the lane's thread (the
  /// caller's thread for inline lanes) *after* the subscribers' callbacks
  /// returned: `watermark(lane, ts)` when a lane applied an advanced input
  /// watermark (every window close for windows ≤ ts has already fired),
  /// `finished(lane)` after a lane flushed end-of-stream. Both fire for
  /// every lane, lane N included; a cross-shard merge stage aligns on the
  /// shard lanes' reports, a session's ordered alert release on all of
  /// them. Hooks are not subscribers, so they never appear in the lanes'
  /// delivery/skip accounting. Either hook is optional.
  struct ProgressHooks {
    std::function<void(size_t lane, Timestamp ts)> watermark;
    std::function<void(size_t lane)> finished;
  };
  void SetProgressHooks(ProgressHooks hooks);

  // Streaming (push-driven) interface, driven by the engine's session
  // API. All of it must be called from one thread (the splitter/session
  // thread).

  /// Starts the lanes (threads, unless they run inline). Call once, after
  /// the initial Subscribe calls.
  void BeginStream();

  /// Hash-partitions one batch onto the shard lanes' queues, plus the
  /// whole batch to lane N when present. Inline lanes read the caller's
  /// buffer and fill its symbol memos (`Event::syms`) in place; threaded
  /// lanes receive copies and leave the caller's events untouched. The
  /// buffer may be reused as soon as the call returns. Blocks when a lane
  /// queue is full (backpressure).
  void PushBatch(Event* events, size_t count);

  /// Block-native push: materializes the block's rows (columnar blocks
  /// arrive pre-interned from their dictionary) and partitions them.
  /// Empty blocks are ignored.
  void PushBlock(EventBlock* block);

  /// Enqueues watermark `ts` to every lane (lane N included) when it
  /// advances the input watermark; returns whether it did. Inline lanes
  /// apply it before returning.
  bool AdvanceWatermark(Timestamp ts);

  /// Blocks until every lane has drained its queue and gone idle (inline
  /// lanes always are). While quiesced — i.e. until the next
  /// PushBatch/AdvanceWatermark — the caller may mutate lane subscriptions
  /// (Subscribe/Unsubscribe) and subscriber state without racing the lane
  /// threads.
  void Quiesce();

  /// Closes the lane queues, joins all lane threads (each lane flushes
  /// end-of-stream first; inline lanes flush on the caller's thread).
  /// Call once; the instance cannot be restarted.
  void FinishStream();

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
  /// One batch handed to a lane: the events (owned) and the input-stream
  /// watermark as of the end of the batch.
  struct LaneBatch {
    EventBatch events;
    Timestamp watermark = INT64_MIN;
  };

  /// A lane: executor + (for threaded lanes) a bounded queue. The thread
  /// pops batches until the queue closes, then finishes the stream; an
  /// inline lane is driven directly. Progress is reported under `index`.
  struct Lane {
    Lane(StreamExecutor::Options opts, size_t lane_index,
         const ProgressHooks* progress)
        : executor(opts), index(lane_index), hooks(progress) {}

    void Push(LaneBatch&& batch, size_t capacity);
    void Close();
    /// Blocks until the queue is empty and the thread is between batches.
    void WaitIdle();
    void ThreadMain();
    /// Applies input watermark `ts`; reports it when it advanced.
    void ApplyWatermark(Timestamp ts);
    /// Flushes end-of-stream and reports it.
    void Finish();
    bool subscribed() const { return executor.num_subscribers() > 0; }

    StreamExecutor executor;
    std::mutex mu;
    std::condition_variable can_push;
    std::condition_variable can_pop;
    std::condition_variable idle;
    std::deque<LaneBatch> queue;
    bool closed = false;
    bool busy = false;  ///< thread currently processing a popped batch
    const size_t index;
    bool started = false;  ///< thread spawned, or inline stream begun
    const ProgressHooks* const hooks;
  };

  /// Begins the lane's stream: on a new thread, or at once when inline.
  void StartLane(Lane* lane);

  Options options_;
  /// One shard: lanes run on the caller's thread (see the class comment).
  bool inline_ = false;
  ProgressHooks hooks_;
  /// Shard lanes 0..N-1, then lane N once subscribed.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  /// Per-lane staging buffers of threaded lanes (lanes 0..N), reused
  /// across PushBatch calls.
  std::vector<EventBatch> staged_;
  SplitterStats splitter_stats_;
  Timestamp input_max_ts_ = INT64_MIN;
  Timestamp pushed_watermark_ = INT64_MIN;
  bool streaming_ = false;  ///< between BeginStream and FinishStream
  bool ran_ = false;
};

}  // namespace saql

#endif  // SAQL_STREAM_SHARDED_EXECUTOR_H_
