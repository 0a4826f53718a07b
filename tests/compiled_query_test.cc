#include "engine/compiled_query.h"

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

/// Direct harness around CompiledQuery (no engine/executor): precise
/// control over event and watermark ordering.
class QueryHarness {
 public:
  explicit QueryHarness(const std::string& text) {
    Result<AnalyzedQueryPtr> aq = CompileSaql(text);
    EXPECT_TRUE(aq.ok()) << aq.status();
    Result<std::unique_ptr<CompiledQuery>> q =
        CompiledQuery::Create(aq.value(), "q");
    EXPECT_TRUE(q.ok()) << q.status();
    query_ = std::move(q).value();
    query_->SetErrorReporter(&errors_);
    query_->SetAlertSink([this](const Alert& a) { alerts_.push_back(a); });
  }

  CompiledQuery* operator->() { return query_.get(); }
  const std::vector<Alert>& alerts() const { return alerts_; }
  const ErrorReporter& errors() const { return errors_; }

 private:
  std::unique_ptr<CompiledQuery> query_;
  std::vector<Alert> alerts_;
  ErrorReporter errors_;
};

Event NetWrite(const std::string& exe, int64_t amount, Timestamp ts) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(exe, 100)
      .Op(EventOp::kWrite)
      .NetObject("1.2.3.4")
      .Amount(amount)
      .Build();
}

TEST(CompiledQueryTest, WindowNotClosedBeforeWatermark) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  h->OnEvent(NetWrite("a.exe", 10, kSecond));
  h->OnWatermark(30 * kSecond);  // window [0, 1min) still open
  EXPECT_TRUE(h.alerts().empty());
  h->OnWatermark(kMinute);  // now it closes
  ASSERT_EQ(h.alerts().size(), 1u);
  EXPECT_EQ(h.alerts()[0].values[1].second.AsInt(), 1);
}

TEST(CompiledQueryTest, FinishFlushesOpenWindows) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  h->OnEvent(NetWrite("a.exe", 10, kSecond));
  h->OnFinish();
  EXPECT_EQ(h.alerts().size(), 1u);
}

TEST(CompiledQueryTest, WindowsCloseInTimeOrder) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { amt := sum(e.amount) } group by p "
      "alert ss.amt > 0 return p, ss.amt");
  h->OnEvent(NetWrite("a.exe", 1, 10 * kSecond));          // window 0
  h->OnEvent(NetWrite("a.exe", 2, 70 * kSecond));          // window 1
  h->OnEvent(NetWrite("a.exe", 4, 130 * kSecond));         // window 2
  h->OnFinish();
  ASSERT_EQ(h.alerts().size(), 3u);
  EXPECT_EQ(h.alerts()[0].values[1].second.AsInt(), 1);
  EXPECT_EQ(h.alerts()[1].values[1].second.AsInt(), 2);
  EXPECT_EQ(h.alerts()[2].values[1].second.AsInt(), 4);
  EXPECT_LT(h.alerts()[0].ts, h.alerts()[1].ts);
}

TEST(CompiledQueryTest, HoppingWindowCountsEventTwice) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min, 30 s) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  // ts=45s is in windows [0,60) and [30,90).
  h->OnEvent(NetWrite("a.exe", 10, 45 * kSecond));
  h->OnFinish();
  ASSERT_EQ(h.alerts().size(), 2u);
  EXPECT_EQ(h.alerts()[0].values[1].second.AsInt(), 1);
  EXPECT_EQ(h.alerts()[1].values[1].second.AsInt(), 1);
}

TEST(CompiledQueryTest, MultipleGroupKeys) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { amt := sum(e.amount) } group by p, i.dstip "
      "alert ss.amt > 0 return p, i.dstip, ss.amt");
  Event a = NetWrite("a.exe", 5, kSecond);
  Event b = NetWrite("a.exe", 7, 2 * kSecond);
  b.obj_net.dst_ip = "9.9.9.9";
  h->OnEvent(a);
  h->OnEvent(b);
  h->OnFinish();
  ASSERT_EQ(h.alerts().size(), 2u);
  // Group rendering joins the key values.
  EXPECT_NE(h.alerts()[0].group.find("a.exe"), std::string::npos);
}

TEST(CompiledQueryTest, GroupByEventField) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { amt := sum(e.amount) } group by e.agentid "
      "alert ss.amt > 0 return e.agentid, ss.amt");
  Event a = NetWrite("x.exe", 5, kSecond);
  Event b = NetWrite("x.exe", 7, 2 * kSecond);
  b.agent_id = "h2";
  h->OnEvent(a);
  h->OnEvent(b);
  h->OnFinish();
  ASSERT_EQ(h.alerts().size(), 2u);
  EXPECT_EQ(h.alerts()[0].values[0].second.AsString(), "h1");
  EXPECT_EQ(h.alerts()[1].values[0].second.AsString(), "h2");
}

TEST(CompiledQueryTest, StatefulQueryWithoutAlertReportsEveryGroup) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { amt := sum(e.amount) } group by p "
      "return p, ss.amt");
  h->OnEvent(NetWrite("a.exe", 5, kSecond));
  h->OnEvent(NetWrite("b.exe", 7, 2 * kSecond));
  h->OnFinish();
  EXPECT_EQ(h.alerts().size(), 2u);  // continuous reporting mode
}

TEST(CompiledQueryTest, RuntimeErrorReportedNotFatal) {
  // sqrt of a negative number fails at alert time; the error lands in the
  // reporter and the stream continues.
  QueryHarness h(
      "proc p write ip i as e "
      "alert sqrt(0 - e.amount) > 0 return p");
  h->OnEvent(NetWrite("a.exe", 100, kSecond));
  h->OnEvent(NetWrite("a.exe", 100, 2 * kSecond));
  h->OnFinish();
  EXPECT_TRUE(h.alerts().empty());
  EXPECT_EQ(h.errors().total(), 2u);
  EXPECT_EQ(h->stats().eval_errors, 2u);
}

TEST(CompiledQueryTest, StatsCountStages) {
  QueryHarness h(
      "agentid = \"h1\" proc p[\"%a.exe\"] write ip i as e return p");
  h->OnEvent(NetWrite("a.exe", 1, kSecond));
  Event other_host = NetWrite("a.exe", 1, 2 * kSecond);
  other_host.agent_id = "h9";
  h->OnEvent(other_host);
  h->OnEvent(NetWrite("b.exe", 1, 3 * kSecond));
  h->OnFinish();
  EXPECT_EQ(h->stats().events_in, 3u);
  EXPECT_EQ(h->stats().events_past_global, 2u);
  EXPECT_EQ(h->stats().matches, 1u);
  EXPECT_EQ(h->stats().alerts, 1u);
}

TEST(CompiledQueryTest, InvariantGroupsTrainIndependently) {
  QueryHarness h(
      "proc p start proc c as e #time(10 s) "
      "state ss { s := set(c.exe_name) } group by p "
      "invariant[1][offline] { a := empty_set a = a union ss.s } "
      "alert |ss.s diff a| > 0 return p, ss.s");
  auto spawn = [](const std::string& parent, const std::string& child,
                  Timestamp ts) {
    return EventBuilder()
        .At(ts)
        .OnHost("h1")
        .Subject(parent, 10)
        .Op(EventOp::kStart)
        .ProcObject(child, 20)
        .Build();
  };
  // apache trains on window 0, violates in window 1.
  h->OnEvent(spawn("apache.exe", "php.exe", kSecond));
  // nginx first appears in window 1 -> its window 1 is TRAINING, so its
  // new child must not alert even though apache's window 1 does.
  h->OnEvent(spawn("apache.exe", "evil.exe", 11 * kSecond));
  h->OnEvent(spawn("nginx.exe", "worker.exe", 12 * kSecond));
  h->OnFinish();
  ASSERT_EQ(h.alerts().size(), 1u);
  EXPECT_EQ(h.alerts()[0].group, "apache.exe");
}

TEST(CompiledQueryTest, StructuralMatchIgnoresConstraints) {
  QueryHarness h("proc p[\"%a.exe\"] write ip i as e return p");
  Event wrong_name = NetWrite("zzz.exe", 1, kSecond);
  EXPECT_TRUE(h->StructuralMatchAny(wrong_name));  // shape matches
  Event wrong_shape = EventBuilder()
                          .At(1)
                          .Subject("a.exe")
                          .Op(EventOp::kRead)
                          .FileObject("/x")
                          .Build();
  EXPECT_FALSE(h->StructuralMatchAny(wrong_shape));
}

TEST(CompiledQueryTest, LateEventIntoClosedWindowIsDropped) {
  QueryHarness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  h->OnEvent(NetWrite("a.exe", 1, kSecond));
  h->OnWatermark(2 * kMinute);  // closes window [0, 1min)
  ASSERT_EQ(h.alerts().size(), 1u);
  // A straggler for the closed window is dropped and counted: the window
  // never reopens, so it does not alert a second time at finish.
  h->OnEvent(NetWrite("a.exe", 1, 30 * kSecond));
  h->OnFinish();
  EXPECT_EQ(h.alerts().size(), 1u);
  EXPECT_EQ(h->stats().late_matches, 1u);
}

TEST(CompiledQueryTest, CreateRejectsNull) {
  Result<std::unique_ptr<CompiledQuery>> q =
      CompiledQuery::Create(nullptr, "q");
  EXPECT_FALSE(q.ok());
}

TEST(CompiledQueryTest, SingleMatchBorrowsThePushedEvent) {
  // A stateless rule whose alert reads only a numeric field: a matched
  // event is read where it was pushed, never copied, so the first matched
  // batch makes no heap allocation although every string of its events
  // is longer than the small-string buffer. Both delivery paths.
  QueryHarness h(
      "proc p write ip i as e alert e.amount > 1000000 return p, i");
  EventBatch batch;
  for (int i = 0; i < 8; ++i) {
    Event e = NetWrite("C:\\Program Files\\Vendor\\agent-" +
                           std::to_string(i) + ".exe",
                       10 + i, (i + 1) * kSecond);
    e.agent_id = "workstation-" + std::to_string(i) + ".corp.example.com";
    e.subject.user = "CORP\\service-account-" + std::to_string(i);
    e.obj_net.dst_ip = "fd00:0000:0000:0000:0000:0000:0000:000" +
                       std::to_string(i);
    e.obj_net.src_ip = "fd00:0000:0000:0000:0000:0000:0000:0100";
    batch.push_back(std::move(e));
  }
  const EventRefs refs = {&batch[0], &batch[1], &batch[2], &batch[3]};

  size_t before = testing::HeapAllocs();
  for (const Event& e : batch) h->OnEvent(e);
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);

  before = testing::HeapAllocs();
  h->OnIndexedDelivery(/*events_in=*/4, /*failed_global=*/0, refs);
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);

  EXPECT_EQ(h->stats().matches, 12u);
  EXPECT_TRUE(h.alerts().empty());
  EXPECT_EQ(h.errors().total(), 0u);
}

TEST(CompiledQueryTest, DuplicateDistinctRowDoesNotAllocate) {
  // After a `return distinct` row's first alert, a match that repeats the
  // row is looked up before any alert is built: it makes no heap
  // allocation and raises nothing, although its strings are longer than
  // the small-string buffer. The int column is evaluated, not read in
  // place. Both delivery paths.
  QueryHarness h("proc p write ip i as e return distinct p, i, e.amount");
  EventBatch batch;
  for (int i = 0; i < 8; ++i) {
    Event e = NetWrite("C:\\Program Files\\Vendor\\agent-updater.exe", 10,
                       (i + 1) * kSecond);
    e.obj_net.dst_ip = "fd00:0000:0000:0000:0000:0000:0000:0001";
    batch.push_back(std::move(e));
  }
  const EventRefs refs = {&batch[0], &batch[1], &batch[2], &batch[3]};
  h->OnEvent(batch[0]);
  ASSERT_EQ(h.alerts().size(), 1u);

  size_t before = testing::HeapAllocs();
  for (const Event& e : batch) h->OnEvent(e);
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);

  before = testing::HeapAllocs();
  h->OnIndexedDelivery(/*events_in=*/4, /*failed_global=*/0, refs);
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);

  EXPECT_EQ(h->stats().matches, 13u);
  EXPECT_EQ(h.alerts().size(), 1u);
  EXPECT_EQ(h->stats().alerts, 1u);
  EXPECT_EQ(h.errors().total(), 0u);
  ASSERT_EQ(h.alerts()[0].values.size(), 3u);
  EXPECT_EQ(h.alerts()[0].values[0].second.AsString(),
            "C:\\Program Files\\Vendor\\agent-updater.exe");
  EXPECT_EQ(h.alerts()[0].values[1].second.AsString(),
            "fd00:0000:0000:0000:0000:0000:0000:0001");
  EXPECT_EQ(h.alerts()[0].values[2].second.AsInt(), 10);
}

TEST(CompiledQueryTest, JoinAlertReadsTheCompletingPartialsEvents) {
  // Paper Query 1: a four-step join whose alert values come from the
  // completing partial's own events. Two runs of the c5 sequence with
  // different dump files give two distinct rows, each with the values of
  // its own events (another reader process in the second run, so the
  // first run's partials cannot complete with its exfiltration).
  QueryHarness h(testing::ReadQueryFile("query1_rule.saql"));
  auto run = [&h](const std::string& dump, const std::string& dst,
                  int64_t reader_pid, Timestamp t0) {
    const std::string host = "db-server-01";
    h->OnEvent(EventBuilder()
                   .At(t0)
                   .OnHost(host)
                   .Subject("cmd.exe", 11)
                   .Op(EventOp::kStart)
                   .ProcObject("osql.exe", 12)
                   .Build());
    h->OnEvent(EventBuilder()
                   .At(t0 + 1)
                   .OnHost(host)
                   .Subject("sqlservr.exe", 13)
                   .Op(EventOp::kWrite)
                   .FileObject(dump)
                   .Build());
    h->OnEvent(EventBuilder()
                   .At(t0 + 2)
                   .OnHost(host)
                   .Subject("sbblv.exe", reader_pid)
                   .Op(EventOp::kRead)
                   .FileObject(dump)
                   .Build());
    h->OnEvent(EventBuilder()
                   .At(t0 + 3)
                   .OnHost(host)
                   .Subject("sbblv.exe", reader_pid)
                   .Op(EventOp::kWrite)
                   .NetObject(dst, 443)
                   .Amount(1000000)
                   .Build());
  };
  run("C:\\MSSQL\\Backup\\backup1.dmp", "66.77.88.129", 14, kSecond);
  run("D:\\Archive\\Nightly\\backup1.dmp", "10.20.30.129", 24,
      2 * kSecond);
  h->OnFinish();
  ASSERT_EQ(h.alerts().size(), 2u);
  const std::vector<std::vector<std::string>> want = {
      {"cmd.exe", "osql.exe", "sqlservr.exe",
       "C:\\MSSQL\\Backup\\backup1.dmp", "sbblv.exe", "66.77.88.129"},
      {"cmd.exe", "osql.exe", "sqlservr.exe",
       "D:\\Archive\\Nightly\\backup1.dmp", "sbblv.exe", "10.20.30.129"}};
  for (size_t a = 0; a < want.size(); ++a) {
    const Alert& alert = h.alerts()[a];
    ASSERT_EQ(alert.values.size(), want[a].size()) << a;
    for (size_t i = 0; i < want[a].size(); ++i) {
      EXPECT_EQ(alert.values[i].second.AsString(), want[a][i])
          << "alert " << a << " value " << alert.values[i].first;
    }
  }
  EXPECT_EQ(h.errors().total(), 0u);
}

}  // namespace
}  // namespace saql
