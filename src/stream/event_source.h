#ifndef SAQL_STREAM_EVENT_SOURCE_H_
#define SAQL_STREAM_EVENT_SOURCE_H_

#include <cstddef>

#include "core/event.h"
#include "core/event_block.h"

namespace saql {

/// Pull-based producer of the system event stream. In the paper events flow
/// from per-host data collection agents to a central server, which sees
/// one time-ordered feed; here that feed is a pre-materialized vector
/// (`VectorEventSource`, what the enterprise simulator in src/collect
/// hands out) or the stored-event replayer (src/storage).
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
  /// (queries fill symbol memos as they compare). Sources should not hand
  /// out empty blocks; consumers tolerate them.
  virtual EventBlock* NextBlock(size_t max_events) = 0;

  /// Row adapter: fills `batch` with a copy of the next block's rows
  /// (batch is cleared first). Returns false when the stream is
  /// exhausted.
  bool NextBatch(size_t max_events, EventBatch* batch);
};

/// Source over a pre-materialized vector of events: the simulator's
/// `MakeSource`, and tests and benchmarks that want the generation cost
/// out of the measured loop.
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

}  // namespace saql

#endif  // SAQL_STREAM_EVENT_SOURCE_H_
