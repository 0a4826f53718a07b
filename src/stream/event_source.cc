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

}  // namespace saql
