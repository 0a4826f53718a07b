#include <gtest/gtest.h>

#include "stream/event_source.h"
#include "stream/reorder_buffer.h"
#include "stream/stream_executor.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

EventBatch MakeOrderedEvents(int n, Timestamp start = 0,
                             Duration gap = kSecond) {
  EventBatch out;
  for (int i = 0; i < n; ++i) {
    out.push_back(EventBuilder()
                      .Id(static_cast<uint64_t>(i + 1))
                      .At(start + i * gap)
                      .OnHost("h1")
                      .Subject("p.exe")
                      .FileObject("/tmp/f")
                      .Build());
  }
  return out;
}

TEST(VectorEventSourceTest, DeliversAllInBatches) {
  VectorEventSource src(MakeOrderedEvents(10));
  EventBatch batch;
  size_t total = 0;
  while (src.NextBatch(3, &batch)) {
    EXPECT_LE(batch.size(), 3u);
    total += batch.size();
  }
  EXPECT_EQ(total, 10u);
}

TEST(VectorEventSourceTest, ResetRewinds) {
  VectorEventSource src(MakeOrderedEvents(5));
  EventBatch batch;
  while (src.NextBatch(10, &batch)) {
  }
  src.Reset();
  ASSERT_TRUE(src.NextBatch(10, &batch));
  EXPECT_EQ(batch.size(), 5u);
}

class RecordingProcessor : public EventProcessor {
 public:
  void OnBatch(const EventRefs& batch) override {
    for (const Event* e : batch) events.push_back(*e);
  }
  void OnWatermark(Timestamp ts) override { watermarks.push_back(ts); }
  void OnFinish() override { finished = true; }

  EventBatch events;
  std::vector<Timestamp> watermarks;
  bool finished = false;
};

TEST(StreamExecutorTest, DeliversToAllSubscribers) {
  VectorEventSource src(MakeOrderedEvents(10));
  RecordingProcessor a, b;
  StreamExecutor exec;
  exec.Subscribe(&a);
  exec.Subscribe(&b);
  testing::DriveToEnd(&exec, &src, 4);
  EXPECT_EQ(a.events.size(), 10u);
  EXPECT_EQ(b.events.size(), 10u);
  EXPECT_TRUE(a.finished);
  EXPECT_TRUE(b.finished);
  EXPECT_EQ(exec.stats().events, 10u);
  EXPECT_EQ(exec.stats().deliveries, 20u);  // 2 subscribers x 10 events
}

TEST(StreamExecutorTest, WatermarksAdvanceWithBatches) {
  VectorEventSource src(MakeOrderedEvents(10));
  RecordingProcessor p;
  StreamExecutor exec;
  exec.Subscribe(&p);
  testing::DriveToEnd(&exec, &src, 5);
  ASSERT_EQ(p.watermarks.size(), 2u);  // one per batch
  EXPECT_EQ(p.watermarks[0], 4 * kSecond);
  EXPECT_EQ(p.watermarks[1], 9 * kSecond);
}

TEST(StreamExecutorTest, EmptySourceStillFinishes) {
  VectorEventSource src(EventBatch{});
  RecordingProcessor p;
  StreamExecutor exec;
  exec.Subscribe(&p);
  testing::DriveToEnd(&exec, &src);
  EXPECT_TRUE(p.finished);
  EXPECT_TRUE(p.events.empty());
  EXPECT_TRUE(p.watermarks.empty());
}

TEST(ReorderBufferTest, OrdersDisorderedStream) {
  ReorderBuffer buf(5 * kSecond);
  EventBatch out;
  // Arrivals: 10, 8, 12, 9, 20 (all within a 5s horizon of the max).
  for (Timestamp ts : {10, 8, 12, 9, 20}) {
    buf.Push(EventBuilder().At(ts * kSecond).Subject("p").Build(), &out);
  }
  buf.Flush(&out);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].ts, out[i].ts);
  }
  EXPECT_EQ(buf.late_count(), 0u);
}

TEST(ReorderBufferTest, ReleasesOnceHorizonPasses) {
  ReorderBuffer buf(2 * kSecond);
  EventBatch out;
  buf.Push(EventBuilder().At(1 * kSecond).Subject("p").Build(), &out);
  EXPECT_TRUE(out.empty());  // still within horizon
  buf.Push(EventBuilder().At(10 * kSecond).Subject("p").Build(), &out);
  // 1s event is now older than 10s - 2s -> released.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 1 * kSecond);
  EXPECT_EQ(buf.buffered(), 1u);
}

TEST(ReorderBufferTest, CountsLateEvents) {
  ReorderBuffer buf(kSecond);
  EventBatch out;
  buf.Push(EventBuilder().At(100 * kSecond).Subject("p").Build(), &out);
  buf.Push(EventBuilder().At(1 * kSecond).Subject("p").Build(), &out);
  EXPECT_EQ(buf.late_count(), 1u);
  // The late event was emitted immediately.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().ts, 1 * kSecond);
}

TEST(ReorderBufferTest, FlushEmitsEverything) {
  ReorderBuffer buf(100 * kSecond);
  EventBatch out;
  for (Timestamp ts : {5, 3, 4}) {
    buf.Push(EventBuilder().At(ts * kSecond).Subject("p").Build(), &out);
  }
  EXPECT_TRUE(out.empty());
  buf.Flush(&out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(buf.buffered(), 0u);
}

}  // namespace
}  // namespace saql
