#include "stream/event_source.h"

#include <algorithm>

namespace saql {

bool EventSource::NextBatch(size_t max_events, EventBatch* batch) {
  batch->clear();
  EventBlock* block;
  // Tolerate sources that (out of contract) report progress with an empty
  // block; an empty block must not read as end-of-stream.
  do {
    block = NextBlock(max_events);
    if (block == nullptr) return false;
  } while (block->empty());
  const Event* rows = block->MutableRows();
  batch->assign(rows, rows + block->size());
  return true;
}

VectorEventSource::VectorEventSource(EventBatch events)
    : events_(std::move(events)) {}

EventBlock* VectorEventSource::NextBlock(size_t max_events) {
  if (pos_ >= events_.size()) return nullptr;
  size_t n = std::min(max_events, events_.size() - pos_);
  block_.ResetBorrowedRows(events_.data() + pos_, n);
  pos_ += n;
  return &block_;
}

CallbackEventSource::CallbackEventSource(Generator gen)
    : gen_(std::move(gen)) {}

EventBlock* CallbackEventSource::NextBlock(size_t max_events) {
  if (done_) return nullptr;
  EventBatch& rows = block_.ResetOwnedRows();
  for (size_t i = 0; i < max_events; ++i) {
    Event e;
    if (!gen_(&e)) {
      done_ = true;
      break;
    }
    rows.push_back(std::move(e));
  }
  return rows.empty() ? nullptr : &block_;
}

MergingEventSource::MergingEventSource(
    std::vector<std::unique_ptr<EventSource>> inputs) {
  cursors_.reserve(inputs.size());
  for (auto& in : inputs) {
    Cursor c;
    c.source = std::move(in);
    cursors_.push_back(std::move(c));
  }
}

void MergingEventSource::Refill(size_t i, size_t budget) {
  Cursor& c = cursors_[i];
  if (c.pos < c.buffer.size() || c.exhausted) return;
  c.buffer.clear();
  c.pos = 0;
  if (!c.source->NextBatch(std::max<size_t>(budget, 1), &c.buffer)) {
    c.exhausted = true;
  }
}

EventBlock* MergingEventSource::NextBlock(size_t max_events) {
  EventBatch& rows = block_.ResetOwnedRows();
  while (rows.size() < max_events) {
    // Pick the cursor with the smallest current timestamp. The fan-in here
    // (one agent feed per host) is small, so a linear scan beats a heap.
    size_t best = cursors_.size();
    Timestamp best_ts = 0;
    for (size_t i = 0; i < cursors_.size(); ++i) {
      Refill(i, max_events);
      Cursor& c = cursors_[i];
      if (c.exhausted || c.pos >= c.buffer.size()) continue;
      Timestamp ts = c.buffer[c.pos].ts;
      if (best == cursors_.size() || ts < best_ts) {
        best = i;
        best_ts = ts;
      }
    }
    if (best == cursors_.size()) break;  // all exhausted
    rows.push_back(cursors_[best].buffer[cursors_[best].pos]);
    ++cursors_[best].pos;
  }
  return rows.empty() ? nullptr : &block_;
}

}  // namespace saql
