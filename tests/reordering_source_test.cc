// Integration: the engine over a disordered feed, repaired by
// ReorderingEventSource. Sequence (with) semantics are order-sensitive, so
// this is where stream disorder actually breaks detections.

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "stream/reorder_buffer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

EventBatch SequencePlusNoise() {
  EventBatch events;
  // The two-step sequence, 10 seconds apart.
  events.push_back(EventBuilder()
                       .At(100 * kSecond)
                       .OnHost("h1")
                       .Subject("cmd.exe", 10)
                       .Op(EventOp::kStart)
                       .ProcObject("osql.exe", 11)
                       .Build());
  events.push_back(EventBuilder()
                       .At(110 * kSecond)
                       .OnHost("h1")
                       .Subject("sqlservr.exe", 12)
                       .Op(EventOp::kWrite)
                       .FileObject("/backup1.dmp")
                       .Amount(1000)
                       .Build());
  // Benign noise around them.
  for (int i = 0; i < 200; ++i) {
    events.push_back(EventBuilder()
                         .At((50 + i) * kSecond)
                         .OnHost("h1")
                         .Subject("chrome.exe", 20)
                         .Op(EventOp::kRead)
                         .FileObject("/cache")
                         .Build());
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.ts < b.ts; });
  return events;
}

const char* kSequenceQuery =
    "proc a[\"%cmd.exe\"] start proc b[\"%osql.exe\"] as e1 "
    "proc c[\"%sqlservr.exe\"] write file f as e2 "
    "with e1 -> e2 "
    "return a, b, f";

size_t RunAndCountAlerts(EventSource* source) {
  SaqlEngine engine;
  EXPECT_TRUE(engine.AddQuery(kSequenceQuery, "seq").ok());
  EXPECT_TRUE(engine.Run(source).ok());
  return engine.alerts().size();
}

/// Jitters timestamps by up to `amount`, then re-sorts by the *jittered
/// arrival order* (i.e., delivers in a wrong event-time order).
EventBatch DisorderedDelivery(EventBatch events, Duration amount,
                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Duration> jitter(0, amount);
  std::vector<std::pair<Timestamp, size_t>> arrival;
  for (size_t i = 0; i < events.size(); ++i) {
    arrival.emplace_back(events[i].ts + jitter(rng), i);
  }
  std::sort(arrival.begin(), arrival.end());
  EventBatch out;
  out.reserve(events.size());
  for (const auto& [ts, i] : arrival) out.push_back(events[i]);
  return out;
}

TEST(ReorderingSourceTest, OrderedBaselineDetects) {
  VectorEventSource source(SequencePlusNoise());
  EXPECT_EQ(RunAndCountAlerts(&source), 1u);
}

TEST(ReorderingSourceTest, DisorderCanBreakSequenceDetection) {
  // Deliver the e2 step before e1 (swap just those two events).
  EventBatch events = SequencePlusNoise();
  auto is_start = [](const Event& e) { return e.op == EventOp::kStart; };
  auto it1 = std::find_if(events.begin(), events.end(), is_start);
  auto it2 = std::find_if(events.begin(), events.end(), [](const Event& e) {
    return e.op == EventOp::kWrite && IsFileEvent(e) &&
           e.subject.exe_name == "sqlservr.exe";
  });
  ASSERT_TRUE(it1 != events.end() && it2 != events.end());
  std::iter_swap(it1, it2);
  VectorEventSource source(std::move(events));
  EXPECT_EQ(RunAndCountAlerts(&source), 0u);  // order matters for `with`
}

TEST(ReorderingSourceTest, ReorderingSourceRepairsDetection) {
  EventBatch disordered =
      DisorderedDelivery(SequencePlusNoise(), 5 * kSecond, 7);
  // Verify the delivery really is out of event-time order.
  bool out_of_order = false;
  for (size_t i = 1; i < disordered.size(); ++i) {
    if (disordered[i].ts < disordered[i - 1].ts) out_of_order = true;
  }
  ASSERT_TRUE(out_of_order);

  VectorEventSource inner(std::move(disordered));
  ReorderingEventSource source(&inner, /*max_delay=*/6 * kSecond);
  EXPECT_EQ(RunAndCountAlerts(&source), 1u);
  EXPECT_EQ(source.late_count(), 0u);
}

TEST(ReorderingSourceTest, OutputIsTimestampOrdered) {
  EventBatch disordered =
      DisorderedDelivery(SequencePlusNoise(), 3 * kSecond, 11);
  VectorEventSource inner(std::move(disordered));
  ReorderingEventSource source(&inner, 4 * kSecond);
  EventBatch batch, all;
  while (source.NextBatch(17, &batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(all.size(), SequencePlusNoise().size());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].ts, all[i].ts) << "position " << i;
  }
}

TEST(ReorderingSourceTest, EmptyInnerSource) {
  VectorEventSource inner((EventBatch()));
  ReorderingEventSource source(&inner, kSecond);
  EventBatch batch;
  EXPECT_FALSE(source.NextBatch(10, &batch));
}

TEST(ReorderingSourceTest, ZeroCopyDrainsInOrderWithoutLoss) {
  EventBatch disordered =
      DisorderedDelivery(SequencePlusNoise(), 3 * kSecond, 11);
  VectorEventSource inner(std::move(disordered));
  ReorderingEventSource source(&inner, 4 * kSecond);
  EventBatch all;
  while (EventBlock* block = source.NextBlock(17)) {
    ASSERT_GT(block->size(), 0u);
    ASSERT_LE(block->size(), 17u);
    const Event* rows = block->MutableRows();
    all.insert(all.end(), rows, rows + block->size());
  }
  ASSERT_EQ(all.size(), SequencePlusNoise().size());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].ts, all[i].ts) << "position " << i;
  }
}

TEST(ReorderingSourceTest, RoutedAlertsIdenticalThroughZeroCopyDrain) {
  // Run pulls exclusively through NextBlock; a repaired disordered feed
  // must produce the same routed alerts as the ordered feed (previously
  // the reordering source fell back to the copying adapter — this pins
  // the in-place drain to identical detections).
  auto run = [](EventSource* source) {
    SaqlEngine engine;  // routing on (default)
    EXPECT_TRUE(engine.AddQuery(kSequenceQuery, "seq").ok());
    EXPECT_TRUE(engine.Run(source).ok());
    std::vector<std::string> rendered;
    for (const Alert& a : engine.alerts()) rendered.push_back(a.ToString());
    return rendered;
  };

  VectorEventSource ordered(SequencePlusNoise());
  std::vector<std::string> baseline = run(&ordered);
  ASSERT_EQ(baseline.size(), 1u);

  EventBatch disordered =
      DisorderedDelivery(SequencePlusNoise(), 5 * kSecond, 7);
  VectorEventSource inner(std::move(disordered));
  ReorderingEventSource repaired(&inner, 6 * kSecond);
  EXPECT_EQ(run(&repaired), baseline);
}

}  // namespace
}  // namespace saql
