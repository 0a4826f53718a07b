#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

std::unique_ptr<CompiledQuery> Compile(const std::string& text,
                                       const std::string& name) {
  Result<AnalyzedQueryPtr> aq = CompileSaql(text);
  EXPECT_TRUE(aq.ok()) << aq.status();
  Result<std::unique_ptr<CompiledQuery>> q =
      CompiledQuery::Create(aq.value(), name);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).value();
}

TEST(SchedulerTest, GroupsCompatibleQueries) {
  auto q1 = Compile("proc p[\"%a.exe\"] write ip i as e return p", "q1");
  auto q2 = Compile("proc p[\"%b.exe\"] write ip i as e return p", "q2");
  auto q3 = Compile("proc p read file f as e return p", "q3");
  ConcurrentQueryScheduler sched;
  sched.AddQuery(q1.get());
  sched.AddQuery(q2.get());
  sched.AddQuery(q3.get());
  sched.BuildGroups();
  EXPECT_EQ(sched.num_groups(), 2u);
}

TEST(SchedulerTest, GroupingDisabledIsOnePerQuery) {
  auto q1 = Compile("proc p[\"%a.exe\"] write ip i as e return p", "q1");
  auto q2 = Compile("proc p[\"%b.exe\"] write ip i as e return p", "q2");
  ConcurrentQueryScheduler sched(
      ConcurrentQueryScheduler::Options{/*enable_grouping=*/false});
  sched.AddQuery(q1.get());
  sched.AddQuery(q2.get());
  sched.BuildGroups();
  EXPECT_EQ(sched.num_groups(), 2u);
}

TEST(SchedulerTest, SignatureIncludesOpsAndObjectType) {
  auto read_q = Compile("proc p read file f as e return p", "r");
  auto write_q = Compile("proc p write file f as e return p", "w");
  auto net_q = Compile("proc p read ip i as e return p", "n");
  EXPECT_NE(read_q->GroupSignature(), write_q->GroupSignature());
  EXPECT_NE(read_q->GroupSignature(), net_q->GroupSignature());
}

TEST(SchedulerTest, SignatureIgnoresConstraintsAndReturns) {
  auto q1 = Compile(
      "proc p[\"%x.exe\"] write ip i[dstip=\"1.1.1.1\"] as e return p", "a");
  auto q2 = Compile("proc q write ip j as e return j", "b");
  EXPECT_EQ(q1->GroupSignature(), q2->GroupSignature());
}

// Hands `event` to `group` as a one-event batch.
void DeliverOne(QueryGroup* group, const Event& event) {
  group->OnBatch({&event});
}

TEST(QueryGroupTest, MasterFilterSavesMemberDeliveries) {
  auto q1 = Compile("proc p[\"%a.exe\"] write ip i as e return p", "q1");
  auto q2 = Compile("proc p[\"%b.exe\"] write ip i as e return p", "q2");
  QueryGroup group("sig");
  group.AddMember(q1.get());
  group.AddMember(q2.get());

  // A file event does not structurally match a net-write pattern: filtered
  // once for the whole group.
  Event file_event = EventBuilder()
                         .At(1)
                         .Subject("a.exe")
                         .Op(EventOp::kRead)
                         .FileObject("/x")
                         .Build();
  DeliverOne(&group, file_event);
  EXPECT_EQ(group.stats().events_in, 1u);
  EXPECT_EQ(group.stats().events_forwarded, 0u);
  EXPECT_EQ(group.stats().member_deliveries, 0u);

  Event net_event = EventBuilder()
                        .At(2)
                        .Subject("a.exe")
                        .Op(EventOp::kWrite)
                        .NetObject("1.1.1.1")
                        .Build();
  DeliverOne(&group, net_event);
  EXPECT_EQ(group.stats().events_forwarded, 1u);
  EXPECT_EQ(group.stats().member_deliveries, 2u);
  // Both members saw the event; only q1's constraints match.
  EXPECT_EQ(q1->stats().matches, 1u);
  EXPECT_EQ(q2->stats().matches, 0u);
}

TEST(QueryGroupTest, WatermarkAndFinishForwarded) {
  auto q = Compile(
      "proc p write ip i as e #time(1 min) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c",
      "q");
  std::vector<Alert> alerts;
  q->SetAlertSink([&](const Alert& a) { alerts.push_back(a); });
  QueryGroup group("sig");
  group.AddMember(q.get());
  DeliverOne(&group, EventBuilder()
                       .At(kSecond)
                       .Subject("p.exe")
                       .Op(EventOp::kWrite)
                       .NetObject("1.1.1.1")
                       .Amount(5)
                       .Build());
  group.OnWatermark(2 * kMinute);  // closes the window
  group.OnFinish();
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(SchedulerTest, ForwardRatioReflectsFiltering) {
  auto q = Compile("proc p write ip i as e return p", "q");
  ConcurrentQueryScheduler sched;
  sched.AddQuery(q.get());
  sched.BuildGroups();
  QueryGroup* g = sched.groups()[0];
  // 3 structurally irrelevant events, 1 relevant.
  for (int i = 0; i < 3; ++i) {
    DeliverOne(g, EventBuilder()
                    .At(i)
                    .Subject("x.exe")
                    .Op(EventOp::kRead)
                    .FileObject("/f")
                    .Build());
  }
  DeliverOne(g, EventBuilder()
                  .At(9)
                  .Subject("x.exe")
                  .Op(EventOp::kWrite)
                  .NetObject("2.2.2.2")
                  .Build());
  EXPECT_DOUBLE_EQ(sched.ForwardRatio(), 0.25);
}

}  // namespace
}  // namespace saql
