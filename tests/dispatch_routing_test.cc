// The executor's op/entity dispatch index: events reach only groups whose
// master pattern can structurally match them, skipped deliveries stay
// accounted, and routing must be invisible to results — alerts and
// ForwardRatio identical with routing on or off.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/scheduler.h"
#include "stream/stream_executor.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

Event NetWrite(const std::string& exe, Timestamp ts) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(exe)
      .Op(EventOp::kWrite)
      .NetObject("1.1.1.1")
      .Amount(10)
      .Build();
}

Event FileRead(const std::string& exe, Timestamp ts) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(exe)
      .Op(EventOp::kRead)
      .FileObject("/data/f")
      .Build();
}

Event ProcStart(const std::string& exe, Timestamp ts) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(exe)
      .Op(EventOp::kStart)
      .ProcObject("child.exe")
      .Build();
}

/// A stream with one net write, one file read, one process start.
EventBatch MixedStream() {
  EventBatch out;
  out.push_back(NetWrite("a.exe", 1 * kSecond));
  out.push_back(FileRead("a.exe", 2 * kSecond));
  out.push_back(ProcStart("a.exe", 3 * kSecond));
  return out;
}

TEST(DispatchRoutingTest, EventsReachOnlyEligibleGroups) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "net").ok());
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "file").ok());
  VectorEventSource source(MixedStream());
  ASSERT_TRUE(engine.Run(&source).ok());

  // 3 events, 2 groups: net write → net group, file read → file group,
  // proc start → nobody. Broadcast would have delivered 6.
  EXPECT_EQ(engine.executor_stats().events, 3u);
  EXPECT_EQ(engine.executor_stats().deliveries, 2u);
  EXPECT_EQ(engine.executor_stats().routed_skips, 4u);

  // Each query saw exactly its own event.
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].second.events_in, 1u);  // net
  EXPECT_EQ(stats[1].second.events_in, 1u);  // file
}

TEST(DispatchRoutingTest, RoutingDisabledBroadcasts) {
  SaqlEngine::Options opts;
  opts.enable_routing = false;
  SaqlEngine engine(opts);
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "net").ok());
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "file").ok());
  VectorEventSource source(MixedStream());
  ASSERT_TRUE(engine.Run(&source).ok());
  EXPECT_EQ(engine.executor_stats().deliveries, 6u);
  EXPECT_EQ(engine.executor_stats().routed_skips, 0u);
}

TEST(DispatchRoutingTest, ForwardRatioConsistentWithRoutingOnAndOff) {
  auto run = [](bool routing) {
    SaqlEngine::Options opts;
    opts.enable_routing = routing;
    SaqlEngine engine(opts);
    EXPECT_TRUE(
        engine.AddQuery("proc p write ip i as e return p", "net").ok());
    EXPECT_TRUE(
        engine.AddQuery("proc p read file f as e return p", "file").ok());
    EventBatch events;
    for (int i = 0; i < 30; ++i) {
      if (i % 3 == 0) {
        events.push_back(NetWrite("a.exe", i * kSecond));
      } else if (i % 3 == 1) {
        events.push_back(FileRead("a.exe", i * kSecond));
      } else {
        events.push_back(ProcStart("a.exe", i * kSecond));
      }
    }
    VectorEventSource source(std::move(events));
    EXPECT_TRUE(engine.Run(&source).ok());
    return engine.forward_ratio();
  };
  // Routed-away events are still accounted as seen by the group, so the
  // scheme's headline metric is comparable across modes.
  EXPECT_DOUBLE_EQ(run(true), run(false));
}

TEST(DispatchRoutingTest, AlertsIdenticalWithRoutingOnAndOff) {
  auto run = [](bool routing) {
    SaqlEngine::Options opts;
    opts.enable_routing = routing;
    SaqlEngine engine(opts);
    EXPECT_TRUE(engine
                    .AddQuery("proc p[\"%m.exe\"] write ip i as e "
                              "return distinct p, i",
                              "rule")
                    .ok());
    EXPECT_TRUE(engine
                    .AddQuery("proc p write ip i as e #time(10 s) "
                              "state ss { amt := sum(e.amount) } group by p "
                              "alert ss.amt > 15 return p, ss.amt",
                              "stateful")
                    .ok());
    EventBatch events;
    for (int i = 0; i < 40; ++i) {
      events.push_back(i % 2 == 0 ? NetWrite("m.exe", i * kSecond)
                                  : FileRead("m.exe", i * kSecond));
    }
    VectorEventSource source(std::move(events));
    EXPECT_TRUE(engine.Run(&source).ok());
    std::vector<std::string> out;
    for (const Alert& a : engine.alerts()) out.push_back(a.ToString());
    return out;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(DispatchRoutingTest, GroupInterestCoversEveryMasterPatternShape) {
  Result<AnalyzedQueryPtr> aq = CompileSaql(
      "proc a start proc b as e1 "
      "proc c read || write file f as e2 "
      "return a");
  ASSERT_TRUE(aq.ok()) << aq.status();
  Result<std::unique_ptr<CompiledQuery>> q =
      CompiledQuery::Create(aq.value(), "q");
  ASSERT_TRUE(q.ok()) << q.status();
  QueryGroup group("sig");
  group.AddMember(q->get());
  RoutingInterest interest = group.Interest();
  EXPECT_FALSE(interest.all);
  EXPECT_TRUE(interest.Wants(EntityType::kProcess, EventOp::kStart));
  EXPECT_TRUE(interest.Wants(EntityType::kFile, EventOp::kRead));
  EXPECT_TRUE(interest.Wants(EntityType::kFile, EventOp::kWrite));
  EXPECT_FALSE(interest.Wants(EntityType::kFile, EventOp::kStart));
  EXPECT_FALSE(interest.Wants(EntityType::kNetwork, EventOp::kWrite));
  EXPECT_FALSE(interest.Wants(EntityType::kProcess, EventOp::kRead));
}

TEST(DispatchRoutingTest, RoutedSkipsKeepGroupIngressAccounting) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "net").ok());
  EventBatch events;
  for (int i = 0; i < 8; ++i) events.push_back(FileRead("x.exe", i));
  events.push_back(NetWrite("x.exe", 9 * kSecond));
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  // 8 routed-away + 1 delivered events all count as seen: 1/9 forwarded.
  EXPECT_DOUBLE_EQ(engine.forward_ratio(), 1.0 / 9.0);
}

class RecordingProcessor : public EventProcessor {
 public:
  void OnBatch(const EventRefs& batch) override {
    for (const Event* e : batch) events.push_back(*e);
  }
  void OnWatermark(Timestamp ts) override { watermarks.push_back(ts); }
  void OnFinish() override {}

  EventBatch events;
  std::vector<Timestamp> watermarks;
};

TEST(DispatchRoutingTest, DefaultInterestReceivesEverything) {
  // Processors without a declared envelope keep broadcast semantics even
  // with routing enabled.
  StreamExecutor exec;  // routing on by default
  RecordingProcessor p;
  exec.Subscribe(&p);
  VectorEventSource source(MixedStream());
  testing::DriveToEnd(&exec, &source, 2);
  EXPECT_EQ(p.events.size(), 3u);
  EXPECT_EQ(exec.stats().deliveries, 3u);
  EXPECT_EQ(exec.stats().routed_skips, 0u);
}

TEST(DispatchRoutingTest, UnchangedWatermarkNotReEmitted) {
  // Batch 1 ends at ts=5s; batch 2's events are all at ts<=5s (late but
  // not advancing): only one watermark may be emitted for both.
  EventBatch events;
  events.push_back(NetWrite("a.exe", 5 * kSecond));
  events.push_back(NetWrite("a.exe", 5 * kSecond));
  events.push_back(NetWrite("a.exe", 4 * kSecond));
  events.push_back(NetWrite("a.exe", 7 * kSecond));
  StreamExecutor exec;
  RecordingProcessor p;
  exec.Subscribe(&p);
  VectorEventSource source(std::move(events));
  testing::DriveToEnd(&exec, &source, 2);  // batches: [5s, 5s], [4s, 7s]
  ASSERT_EQ(p.watermarks.size(), 2u);
  EXPECT_EQ(p.watermarks[0], 5 * kSecond);
  EXPECT_EQ(p.watermarks[1], 7 * kSecond);
  EXPECT_EQ(exec.stats().watermarks, 2u);

  // Same stream, but the second batch never advances: one emission only.
  EventBatch flat;
  flat.push_back(NetWrite("a.exe", 5 * kSecond));
  flat.push_back(NetWrite("a.exe", 5 * kSecond));
  flat.push_back(NetWrite("a.exe", 4 * kSecond));
  flat.push_back(NetWrite("a.exe", 5 * kSecond));
  StreamExecutor exec2;
  RecordingProcessor p2;
  exec2.Subscribe(&p2);
  VectorEventSource source2(std::move(flat));
  testing::DriveToEnd(&exec2, &source2, 2);
  ASSERT_EQ(p2.watermarks.size(), 1u);
  EXPECT_EQ(p2.watermarks[0], 5 * kSecond);
}

TEST(DispatchRoutingTest, BatchedDeliveryPreservesStreamOrder) {
  SaqlEngine::Options opts;
  opts.batch_size = 3;
  SaqlEngine engine(opts);
  ASSERT_TRUE(engine
                  .AddQuery("proc p write ip i as e alert e.amount > 0 "
                            "return e.ts",
                            "q")
                  .ok());
  EventBatch events;
  for (int i = 0; i < 10; ++i) {
    Event e = NetWrite("a.exe", i * kSecond);
    events.push_back(e);
    events.push_back(FileRead("a.exe", i * kSecond));  // routed away
  }
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  ASSERT_EQ(engine.alerts().size(), 10u);
  for (size_t i = 1; i < engine.alerts().size(); ++i) {
    EXPECT_LE(engine.alerts()[i - 1].ts, engine.alerts()[i].ts);
  }
}

}  // namespace
}  // namespace saql
