#ifndef SAQL_STREAM_STREAM_EXECUTOR_H_
#define SAQL_STREAM_STREAM_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/event.h"
#include "core/time_util.h"

namespace saql {

/// References to events of one pulled batch, in stream order; the unit of
/// batched delivery (`EventProcessor::OnBatch`).
using EventRefs = std::vector<const Event*>;

/// The structural envelope of events a processor can possibly act on: one
/// operation mask per object entity type. The executor's dispatch index
/// routes each event only to processors whose envelope covers the event's
/// (object type, operation) pair; everything else is skipped wholesale.
struct RoutingInterest {
  /// Deliver every event regardless of shape (default for processors that
  /// do not declare an envelope).
  bool all = true;
  /// Operation mask per `EntityType` (indexed by its numeric value); only
  /// consulted when `all` is false.
  OpMask ops_by_type[3] = {0, 0, 0};

  /// Narrows the interest to declared shapes and adds one combination.
  void Add(EntityType type, OpMask ops) {
    all = false;
    ops_by_type[static_cast<size_t>(type)] |= ops;
  }

  bool Wants(EntityType type, EventOp op) const {
    return all ||
           OpMaskContains(ops_by_type[static_cast<size_t>(type)], op);
  }
};

/// Consumer interface over the event stream. The engine subscribes one
/// query group (master-dependent scheme, `QueryGroup`) per compatibility
/// class; a group hands events on to its member queries itself.
class EventProcessor {
 public:
  virtual ~EventProcessor() = default;

  /// The one delivery entry point: the events of one batch routed to this
  /// processor, in stream (timestamp) order. The executor calls this once
  /// per batch per processor — one virtual dispatch amortized over the
  /// whole batch.
  virtual void OnBatch(const EventRefs& events) = 0;

  /// Event time has advanced to `ts`; windows ending at or before `ts` can
  /// be finalized. Called after a batch whose events moved the watermark.
  virtual void OnWatermark(Timestamp ts) = 0;

  /// The stream ended; flush remaining state (open windows, partial
  /// matches).
  virtual void OnFinish() = 0;

  /// The structural envelope this processor wants. Declared once, read by
  /// the executor when it (re)builds its dispatch index. Default: all
  /// events.
  virtual RoutingInterest Interest() const { return RoutingInterest{}; }

  /// `count` events of the current batch were withheld by the dispatch
  /// index because they fall outside `Interest()`. Lets processors keep
  /// their ingress accounting identical to broadcast delivery.
  virtual void OnRoutedSkip(uint64_t count) { (void)count; }
};

/// Execution statistics, the accounting behind the concurrent-query
/// benchmarks (paper §II-C: the master-dependent-query scheme reduces
/// per-query data copies).
struct ExecutorStats {
  /// Events handed to `ProcessBatch`, subscribed to or not.
  uint64_t events = 0;
  /// Event deliveries = sum over events of subscribers it was handed to.
  /// With N independent queries this is N * events; with grouped queries it
  /// is (#groups) * events; with routing enabled, only eligible groups
  /// count.
  uint64_t deliveries = 0;
  /// Non-empty batches handed to `ProcessBatch`.
  uint64_t batches = 0;
  /// Deliveries avoided by the dispatch index (event shape outside the
  /// subscriber's interest). deliveries + routed_skips equals what a
  /// broadcast executor would have delivered.
  uint64_t routed_skips = 0;
  /// Watermarks emitted (suppressed when the watermark did not advance).
  uint64_t watermarks = 0;
};

/// Single-threaded, step-wise delivery: the driver hands it batches of the
/// stream and watermarks, and it delivers each event to the subscribed
/// processors. (The paper's deployment parallelizes across hosts before
/// the central feed; the engine itself observes one totally-ordered feed,
/// which this models.) Every session owns one and drives it from the
/// session's thread.
///
/// Delivery is routed, not broadcast: at stream start the executor indexes
/// subscribers by the (object type, operation) combinations they declare
/// via `Interest()`, and each event is pushed only to the eligible
/// subscribers — the op/entity dispatch index that makes the shared pass
/// scale with the number of *matching* queries instead of all of them.
/// Nothing is interned up front: an exact-equality predicate interns the
/// one attribute it compares on first read (`GetEntitySymbol`, into its
/// session's table), memoized in `Event::syms`, and compares symbol ids
/// from then on.
class StreamExecutor {
 public:
  struct Options {
    /// Route events through the dispatch index; disabled = broadcast to
    /// every subscriber (the ablation baseline).
    bool enable_routing = true;
  };

  StreamExecutor() = default;
  explicit StreamExecutor(Options options) : options_(options) {}

  /// Registers a processor. It must stay alive until `FinishStream` or
  /// its `Unsubscribe`. May be called mid-stream between batches: the
  /// dispatch index is rebuilt before the next `ProcessBatch`, so a
  /// subscriber added at time T sees only events pushed after T (the
  /// session API's attach-point semantics).
  void Subscribe(EventProcessor* processor);

  /// Removes one processor; it receives no further events, watermarks, or
  /// finish calls. Mid-stream removal is legal between batches only (the
  /// executor is single-threaded; external drivers serialize with
  /// ProcessBatch themselves). No-op when the processor is not subscribed.
  void Unsubscribe(EventProcessor* processor);

  // Step-wise driving interface.

  /// Builds the dispatch index and resets per-run watermark state. Call
  /// once after all Subscribe calls, before the first ProcessBatch.
  void BeginStream();

  /// Delivers one batch to eligible subscribers; their symbol reads fill
  /// the events' memos in place. Does not emit a watermark; the max event
  /// time seen so far is tracked internally.
  void ProcessBatch(Event* batch, size_t count);

  /// Emits `ts` to all subscribers if it advances the emitted watermark;
  /// returns whether it did. Drivers pass the max event time seen or any
  /// value ≥ it (closing the same windows earlier, never different ones).
  bool AdvanceWatermark(Timestamp ts);

  /// Calls OnFinish on all subscribers (end of stream).
  void FinishStream();

  /// Max event timestamp seen since BeginStream (INT64_MIN before any).
  Timestamp max_event_ts() const { return max_event_ts_; }

  const ExecutorStats& stats() const { return stats_; }

 private:
  /// Builds table_[type][op] → subscriber indices from the subscribers'
  /// declared interests, and sizes the per-subscriber routing scratch.
  void BuildRoutingTable();

  Options options_;
  std::vector<EventProcessor*> processors_;
  std::vector<uint32_t> table_[3][kNumEventOps];
  /// Per-subscriber slice of the current batch, reused across batches.
  std::vector<EventRefs> routed_;
  /// Subscriber set changed since the dispatch index was last built
  /// (mid-stream Subscribe/Unsubscribe); rebuilt lazily by ProcessBatch.
  bool routing_dirty_ = true;
  Timestamp max_event_ts_ = INT64_MIN;
  Timestamp emitted_watermark_ = INT64_MIN;
  ExecutorStats stats_;
};

}  // namespace saql

#endif  // SAQL_STREAM_STREAM_EXECUTOR_H_
