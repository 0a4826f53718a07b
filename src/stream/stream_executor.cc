#include "stream/stream_executor.h"

namespace saql {

namespace {

/// How many events ahead of the routing loop `ProcessBatch` prefetches.
/// The loop itself reads only line 0 of an event; the processors it hands
/// the batch to read lines 0-1 (see `Event`), so both are requested.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

void StreamExecutor::Subscribe(EventProcessor* processor) {
  processors_.push_back(processor);
  routing_dirty_ = true;
}

void StreamExecutor::Unsubscribe(EventProcessor* processor) {
  for (auto it = processors_.begin(); it != processors_.end(); ++it) {
    if (*it == processor) {
      processors_.erase(it);
      routing_dirty_ = true;
      return;
    }
  }
}

void StreamExecutor::BuildRoutingTable() {
  for (auto& by_op : table_) {
    for (auto& bucket : by_op) bucket.clear();
  }
  if (options_.enable_routing) {
    for (size_t i = 0; i < processors_.size(); ++i) {
      RoutingInterest interest = processors_[i]->Interest();
      for (size_t type = 0; type < 3; ++type) {
        for (int op = 0; op < kNumEventOps; ++op) {
          if (interest.Wants(static_cast<EntityType>(type),
                             static_cast<EventOp>(op))) {
            table_[type][op].push_back(static_cast<uint32_t>(i));
          }
        }
      }
    }
  }
  routed_.assign(processors_.size(), EventRefs{});
  routing_dirty_ = false;
}

void StreamExecutor::BeginStream() {
  BuildRoutingTable();
  max_event_ts_ = INT64_MIN;
  emitted_watermark_ = INT64_MIN;
}

void StreamExecutor::ProcessBatch(Event* batch, size_t count) {
  if (count == 0) return;
  if (routing_dirty_) BuildRoutingTable();
  const size_t n = processors_.size();
  ++stats_.batches;
  for (EventRefs& r : routed_) r.clear();
  for (size_t k = 0; k < count; ++k) {
    if (k + kPrefetchDistance < count) {
      const char* ahead =
          reinterpret_cast<const char*>(&batch[k + kPrefetchDistance]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + 64);
    }
    const Event& e = batch[k];
    ++stats_.events;
    if (e.ts > max_event_ts_) max_event_ts_ = e.ts;
    if (options_.enable_routing) {
      const std::vector<uint32_t>& bucket =
          table_[static_cast<size_t>(e.object_type)]
                [static_cast<size_t>(e.op)];
      for (uint32_t idx : bucket) routed_[idx].push_back(&e);
    } else {
      for (EventRefs& r : routed_) r.push_back(&e);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!routed_[i].empty()) {
      stats_.deliveries += routed_[i].size();
      processors_[i]->OnBatch(routed_[i]);
    }
    uint64_t skipped = count - routed_[i].size();
    if (skipped > 0) {
      stats_.routed_skips += skipped;
      processors_[i]->OnRoutedSkip(skipped);
    }
  }
}

bool StreamExecutor::AdvanceWatermark(Timestamp ts) {
  // Emit the watermark only when it advanced; re-broadcasting an unchanged
  // watermark would make every stateful query rescan its open windows for
  // nothing.
  if (ts == INT64_MIN || ts <= emitted_watermark_) return false;
  emitted_watermark_ = ts;
  ++stats_.watermarks;
  for (EventProcessor* p : processors_) {
    p->OnWatermark(ts);
  }
  return true;
}

void StreamExecutor::FinishStream() {
  for (EventProcessor* p : processors_) {
    p->OnFinish();
  }
}

}  // namespace saql
