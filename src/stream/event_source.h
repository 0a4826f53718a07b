#ifndef SAQL_STREAM_EVENT_SOURCE_H_
#define SAQL_STREAM_EVENT_SOURCE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/event.h"
#include "core/event_block.h"

namespace saql {

/// Pull-based producer of the system event stream. In the paper events flow
/// from per-host data collection agents to a central server; here sources
/// are the synthetic enterprise simulator (src/collect) or the stored-event
/// replayer (src/storage).
///
/// The ingestion unit is the **block** (`EventBlock`, core/event_block.h):
/// `NextBlock` is the one virtual every source implements. Columnar
/// sources (the mmap'd event-log replayer) hand out blocks whose columns
/// alias their own storage and whose dictionary is already interned; row
/// sources wrap their rows in a block shim. The row-level pull `NextBatch`
/// survives as a non-virtual copying adapter over `NextBlock`.
///
/// Sources produce events in non-decreasing timestamp order unless stated
/// otherwise; a `ReorderBuffer` can repair bounded disorder.
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Primary pull: returns the next block of up to `max_events` events, or
  /// nullptr at end of stream. The block is owned by the source and stays
  /// valid until the next pull; callers may annotate its rows in place
  /// (queries fill symbol memos as they compare — columnar blocks arrive
  /// with them pre-stamped). Sources should not hand out empty blocks;
  /// consumers tolerate them.
  virtual EventBlock* NextBlock(size_t max_events) = 0;

  /// Row adapter: fills `batch` with a copy of the next block's rows
  /// (batch is cleared first). Returns false when the stream is
  /// exhausted.
  bool NextBatch(size_t max_events, EventBatch* batch);
};

/// Source over a pre-materialized vector of events; used by tests and by
/// benchmarks that want the generation cost out of the measured loop.
class VectorEventSource : public EventSource {
 public:
  explicit VectorEventSource(EventBatch events);

  /// Hands out blocks borrowing slices of the owned vector — no per-event
  /// copies. Interned symbol memos (`Event::syms`) persist across
  /// `Reset`, so a replay through a session interns each compared
  /// slot at most once.
  EventBlock* NextBlock(size_t max_events) override;

  /// Rewinds to the beginning (benchmarks reuse one materialized stream).
  void Reset() { pos_ = 0; }

  size_t size() const { return events_.size(); }

 private:
  EventBatch events_;
  size_t pos_ = 0;
  EventBlock block_;
};

/// Adapts a generator function into a source. The function returns false to
/// signal end of stream.
class CallbackEventSource : public EventSource {
 public:
  using Generator = std::function<bool(Event*)>;

  explicit CallbackEventSource(Generator gen);

  EventBlock* NextBlock(size_t max_events) override;

 private:
  Generator gen_;
  bool done_ = false;
  EventBlock block_;
};

/// Merges several timestamp-ordered sources into one ordered stream — the
/// central server's view over all per-host agent feeds.
class MergingEventSource : public EventSource {
 public:
  explicit MergingEventSource(std::vector<std::unique_ptr<EventSource>> inputs);

  EventBlock* NextBlock(size_t max_events) override;

 private:
  struct Cursor {
    std::unique_ptr<EventSource> source;
    EventBatch buffer;
    size_t pos = 0;
    bool exhausted = false;
  };

  /// Ensures cursor `i` has a current event or is marked exhausted,
  /// pulling at most `budget` events from the inner source (the caller's
  /// `max_events` — inner sources must not be drained harder than the
  /// consumer asked for, e.g. a paced replayer behind the merge).
  void Refill(size_t i, size_t budget);

  std::vector<Cursor> cursors_;
  EventBlock block_;
};

}  // namespace saql

#endif  // SAQL_STREAM_EVENT_SOURCE_H_
