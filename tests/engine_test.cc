#include "engine/engine.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

/// Runs `query` over `events` and returns the alerts.
std::vector<Alert> RunQuery(const std::string& query, EventBatch events,
                            SaqlEngine::Options options = {}) {
  SaqlEngine engine(options);
  Status st = engine.AddQuery(query, "q");
  EXPECT_TRUE(st.ok()) << st;
  VectorEventSource source(std::move(events));
  st = engine.Run(&source);
  EXPECT_TRUE(st.ok()) << st;
  return engine.alerts();
}

Event NetWrite(const std::string& exe, const std::string& dst,
               int64_t amount, Timestamp ts, const std::string& host = "h1",
               int64_t pid = 100) {
  return EventBuilder()
      .At(ts)
      .OnHost(host)
      .Subject(exe, pid)
      .Op(EventOp::kWrite)
      .NetObject(dst)
      .Amount(amount)
      .Build();
}

Event ProcStart(const std::string& parent, const std::string& child,
                Timestamp ts, const std::string& host = "h1") {
  return EventBuilder()
      .At(ts)
      .OnHost(host)
      .Subject(parent, 50)
      .Op(EventOp::kStart)
      .ProcObject(child, 60)
      .Build();
}

// ---------------------------------------------------------------------------
// Rule-based queries.
// ---------------------------------------------------------------------------

TEST(RuleQueryTest, SinglePatternAlertsOnEveryMatch) {
  EventBatch events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(NetWrite("malware.exe", "6.6.6.6", 100, i * kSecond));
  }
  events.push_back(NetWrite("chrome.exe", "8.8.8.8", 100, 10 * kSecond));
  auto alerts = RunQuery(
      "proc p[\"%malware.exe\"] write ip i as e return p, i", events);
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0].values[0].second.AsString(), "malware.exe");
  EXPECT_EQ(alerts[0].values[1].second.AsString(), "6.6.6.6");
}

TEST(RuleQueryTest, DistinctSuppressesDuplicates) {
  EventBatch events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(NetWrite("malware.exe", "6.6.6.6", 100, i * kSecond));
  }
  auto alerts = RunQuery(
      "proc p[\"%malware.exe\"] write ip i as e return distinct p, i",
      events);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(RuleQueryTest, DistinctKeyKeepsTodaysRendering) {
  // A distinct row's key is each value's `Value::ToString` followed by
  // '\x1f'. Rows that render alike are one row: `amount / 4` is a float
  // printed with six significant digits, so 1000000, 1000000.75 and
  // 1000003 are all "1e+06". The separator keeps ("ab", "c") apart from
  // ("a", "bc"); the file path of a network object is null.
  EventBatch events;
  events.push_back(NetWrite("ab", "c", 4000000, 1 * kSecond));   // new
  events.push_back(NetWrite("a", "bc", 4000000, 2 * kSecond));   // new
  events.push_back(NetWrite("ab", "c", 4000003, 3 * kSecond));   // as #1
  events.push_back(NetWrite("ab", "c", 4000012, 4 * kSecond));   // as #1
  events.push_back(NetWrite("ab", "c", 4400000, 5 * kSecond));   // new
  events.push_back(NetWrite("ab", "c", 8, 6 * kSecond));         // new
  events.push_back(NetWrite("ab", "c", 8, 7 * kSecond));         // as #6
  auto alerts = RunQuery(
      "proc p write ip i as e "
      "return distinct p, i, e.object_path, e.amount / 4, e.amount % 3",
      events);
  std::vector<std::string> rows;
  for (const Alert& a : alerts) {
    std::string row = std::to_string(a.ts / kSecond) + ":";
    for (const auto& [label, value] : a.values) row += " " + value.ToString();
    rows.push_back(row);
  }
  EXPECT_EQ(rows, (std::vector<std::string>{
                      "1: ab c null 1e+06 1",
                      "2: a bc null 1e+06 1",
                      "5: ab c null 1.1e+06 2",
                      "6: ab c null 2 2",
                  }));
  ASSERT_EQ(alerts.size(), 4u);
  EXPECT_TRUE(alerts[0].values[2].second.is_null());
  EXPECT_TRUE(alerts[0].values[3].second.is_float());
  EXPECT_TRUE(alerts[0].values[4].second.is_int());
}

TEST(RuleQueryTest, AlertConditionFilters) {
  EventBatch events;
  events.push_back(NetWrite("app.exe", "1.1.1.1", 100, kSecond));
  events.push_back(NetWrite("app.exe", "1.1.1.1", 9999999, 2 * kSecond));
  auto alerts = RunQuery(
      "proc p write ip i as e alert e.amount > 1000000 return p, e.amount",
      events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].values[1].second.AsInt(), 9999999);
}

TEST(RuleQueryTest, GlobalConstraintRestrictsHost) {
  EventBatch events;
  events.push_back(NetWrite("x.exe", "1.1.1.1", 10, kSecond, "host-a"));
  events.push_back(NetWrite("x.exe", "1.1.1.1", 10, 2 * kSecond, "host-b"));
  auto alerts = RunQuery(
      "agentid = \"host-a\" proc p write ip i as e return p", events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].ts, kSecond);
}

TEST(RuleQueryTest, MultiPatternSequenceAlert) {
  EventBatch events;
  events.push_back(ProcStart("cmd.exe", "osql.exe", 100));
  events.push_back(EventBuilder()
                       .At(200)
                       .OnHost("h1")
                       .Subject("sqlservr.exe", 70)
                       .Op(EventOp::kWrite)
                       .FileObject("/backup1.dmp")
                       .Amount(5000000)
                       .Build());
  auto alerts = RunQuery(
      "proc a[\"%cmd.exe\"] start proc b[\"%osql.exe\"] as e1 "
      "proc c[\"%sqlservr.exe\"] write file f as e2 "
      "with e1 -> e2 "
      "return a, b, f",
      events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].values[2].second.AsString(), "/backup1.dmp");
  EXPECT_EQ(alerts[0].ts, 200);
}

// ---------------------------------------------------------------------------
// Time-series (state) queries.
// ---------------------------------------------------------------------------

TEST(TimeSeriesQueryTest, Query2SpikeDetection) {
  // 3 calm windows then a spike window for backup.exe; chrome stays calm.
  EventBatch events;
  Timestamp t0 = 0;
  for (int w = 0; w < 4; ++w) {
    Timestamp base = t0 + w * 10 * kMinute;
    int64_t backup_amount = (w == 3) ? 900000 : 5000;
    for (int i = 0; i < 6; ++i) {
      events.push_back(NetWrite("backup.exe", "10.0.0.2", backup_amount,
                                base + i * kMinute, "h1", 100));
      events.push_back(NetWrite("chrome.exe", "8.8.8.8", 4000,
                                base + i * kMinute + kSecond, "h1", 101));
    }
  }
  // Closing event so the last window's end passes the watermark.
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 41 * kMinute));

  auto alerts = RunQuery(testing::ReadQueryFile("query2_timeseries.saql"),
                         events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].group, "backup.exe");
  EXPECT_DOUBLE_EQ(alerts[0].values[1].second.AsFloat(), 900000.0);
  ASSERT_TRUE(alerts[0].window.has_value());
  EXPECT_EQ(alerts[0].window->start, 30 * kMinute);
}

TEST(TimeSeriesQueryTest, NoAlertWithoutSpike) {
  EventBatch events;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 6; ++i) {
      events.push_back(NetWrite("steady.exe", "10.0.0.2", 50000,
                                w * 10 * kMinute + i * kMinute));
    }
  }
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 51 * kMinute));
  auto alerts = RunQuery(testing::ReadQueryFile("query2_timeseries.saql"),
                         events);
  EXPECT_TRUE(alerts.empty());
}

TEST(TimeSeriesQueryTest, StateHistoryValuesExposed) {
  EventBatch events;
  for (int w = 0; w < 3; ++w) {
    events.push_back(NetWrite("app.exe", "1.1.1.1", (w + 1) * 1000,
                              w * kMinute + kSecond));
  }
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 4 * kMinute));
  auto alerts = RunQuery(
      "proc p write ip i as e #time(1 min) "
      "state[3] ss { amt := avg(e.amount) } group by p "
      "alert ss[0].amt > 0 "
      "return p, ss[0].amt, ss[1].amt, ss[2].amt",
      events);
  // app.exe closes 3 windows; the third has full history.
  std::vector<Alert> app_alerts;
  for (const Alert& a : alerts) {
    if (a.group == "app.exe") app_alerts.push_back(a);
  }
  ASSERT_EQ(app_alerts.size(), 3u);
  const Alert& third = app_alerts[2];
  EXPECT_DOUBLE_EQ(third.values[1].second.AsFloat(), 3000.0);  // ss[0]
  EXPECT_DOUBLE_EQ(third.values[2].second.AsFloat(), 2000.0);  // ss[1]
  EXPECT_DOUBLE_EQ(third.values[3].second.AsFloat(), 1000.0);  // ss[2]
}

TEST(TimeSeriesQueryTest, CountWindowClosesPerGroup) {
  EventBatch events;
  for (int i = 0; i < 7; ++i) {
    events.push_back(NetWrite("a.exe", "1.1.1.1", 10, i * kSecond));
  }
  auto alerts = RunQuery(
      "proc p write ip i as e #count(3) "
      "state ss { c := count() } group by p "
      "alert ss.c >= 3 return p, ss.c",
      events);
  // 7 events -> two full count-3 windows + a partial (1 event) flushed at
  // finish which fails the alert.
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].values[1].second.AsInt(), 3);
}

// ---------------------------------------------------------------------------
// Invariant queries.
// ---------------------------------------------------------------------------

TEST(InvariantQueryTest, Query3DetectsUnseenChild) {
  EventBatch events;
  // 10 training windows of apache spawning php/logger every 10 seconds.
  for (int w = 0; w < 12; ++w) {
    Timestamp base = w * 10 * kSecond;
    events.push_back(
        ProcStart("apache.exe", w % 2 == 0 ? "php.exe" : "logger.exe",
                  base + kSecond, "web-1"));
    events.push_back(ProcStart("apache.exe", "php.exe", base + 5 * kSecond,
                               "web-1"));
  }
  // Window 12 (post-training): the backdoor child appears.
  events.push_back(
      ProcStart("apache.exe", "sbblv.exe", 12 * 10 * kSecond + kSecond,
                "web-1"));
  events.push_back(ProcStart("apache.exe", "php.exe",
                             13 * 10 * kSecond + kSecond, "web-1"));

  auto alerts = RunQuery(testing::ReadQueryFile("query3_invariant.saql"),
                         events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].group, "apache.exe");
  const Value& set = alerts[0].values[1].second;
  EXPECT_TRUE(set.AsSet().count("sbblv.exe"));
}

TEST(InvariantQueryTest, NoAlertDuringTraining) {
  EventBatch events;
  // Only 5 of the 10 training windows contain data; every child is new but
  // training suppresses alerts.
  for (int w = 0; w < 5; ++w) {
    events.push_back(ProcStart("apache.exe", "child" + std::to_string(w),
                               w * 10 * kSecond + kSecond, "web-1"));
  }
  auto alerts = RunQuery(testing::ReadQueryFile("query3_invariant.saql"),
                         events);
  EXPECT_TRUE(alerts.empty());
}

TEST(InvariantQueryTest, OfflineKeepsAlertingOnRepeatedViolation) {
  std::string q =
      "proc p1[\"%apache.exe\"] start proc p2 as evt #time(10 s) "
      "state ss { set_proc := set(p2.exe_name) } group by p1 "
      "invariant[2][offline] { a := empty_set a = a union ss.set_proc } "
      "alert |ss.set_proc diff a| > 0 "
      "return p1, ss.set_proc";
  EventBatch events;
  events.push_back(ProcStart("apache.exe", "php.exe", 1 * kSecond));
  events.push_back(ProcStart("apache.exe", "php.exe", 11 * kSecond));
  events.push_back(ProcStart("apache.exe", "evil.exe", 21 * kSecond));
  events.push_back(ProcStart("apache.exe", "evil.exe", 31 * kSecond));
  auto alerts = RunQuery(q, events);
  EXPECT_EQ(alerts.size(), 2u);  // offline: every violating window alerts
}

TEST(InvariantQueryTest, OnlineAbsorbsViolation) {
  std::string q =
      "proc p1[\"%apache.exe\"] start proc p2 as evt #time(10 s) "
      "state ss { set_proc := set(p2.exe_name) } group by p1 "
      "invariant[2][online] { a := empty_set a = a union ss.set_proc } "
      "alert |ss.set_proc diff a| > 0 "
      "return p1, ss.set_proc";
  EventBatch events;
  events.push_back(ProcStart("apache.exe", "php.exe", 1 * kSecond));
  events.push_back(ProcStart("apache.exe", "php.exe", 11 * kSecond));
  events.push_back(ProcStart("apache.exe", "evil.exe", 21 * kSecond));
  events.push_back(ProcStart("apache.exe", "evil.exe", 31 * kSecond));
  auto alerts = RunQuery(q, events);
  EXPECT_EQ(alerts.size(), 1u);  // online: learned after first alert
}

// ---------------------------------------------------------------------------
// Outlier (cluster) queries.
// ---------------------------------------------------------------------------

TEST(OutlierQueryTest, Query4FlagsExfiltrationIp) {
  EventBatch events;
  Timestamp base = 0;
  // Six peer IPs with similar volumes, one IP receiving the dump.
  for (int i = 0; i < 6; ++i) {
    std::string ip = "10.0.0." + std::to_string(10 + i);
    for (int k = 0; k < 5; ++k) {
      events.push_back(NetWrite("sqlservr.exe", ip, 100000,
                                base + k * kMinute + i * kSecond,
                                "db-server-01"));
    }
  }
  for (int k = 0; k < 5; ++k) {
    events.push_back(NetWrite("sqlservr.exe", "66.77.88.129", 10000000,
                              base + k * kMinute + 30 * kSecond,
                              "db-server-01"));
  }
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 11 * kMinute,
                            "db-server-01"));
  auto alerts = RunQuery(testing::ReadQueryFile("query4_outlier.saql"),
                         events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].values[0].second.AsString(), "66.77.88.129");
  EXPECT_EQ(alerts[0].values[1].second.AsInt(), 50000000);
}

TEST(OutlierQueryTest, NoOutlierWhenPeersSimilar) {
  EventBatch events;
  for (int i = 0; i < 8; ++i) {
    std::string ip = "10.0.0." + std::to_string(10 + i);
    events.push_back(NetWrite("sqlservr.exe", ip, 2000000 + i * 10000,
                              i * kSecond, "db-server-01"));
  }
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 11 * kMinute,
                            "db-server-01"));
  auto alerts = RunQuery(testing::ReadQueryFile("query4_outlier.saql"),
                         events);
  EXPECT_TRUE(alerts.empty());
}

TEST(OutlierQueryTest, AmountFloorSuppressesSmallOutliers) {
  // The outlier is far from peers but below the 1MB alert floor.
  EventBatch events;
  for (int i = 0; i < 6; ++i) {
    events.push_back(NetWrite("sqlservr.exe",
                              "10.0.0." + std::to_string(10 + i), 500000,
                              i * kSecond, "db-server-01"));
  }
  events.push_back(NetWrite("sqlservr.exe", "6.6.6.6", 900000,
                            10 * kSecond, "db-server-01"));
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 11 * kMinute,
                            "db-server-01"));
  auto alerts = RunQuery(testing::ReadQueryFile("query4_outlier.saql"),
                         events);
  EXPECT_TRUE(alerts.empty());
}

// ---------------------------------------------------------------------------
// Engine-level behaviour.
// ---------------------------------------------------------------------------

TEST(EngineTest, RejectsInvalidQuery) {
  SaqlEngine engine;
  Status st = engine.AddQuery("this is not saql", "bad");
  EXPECT_FALSE(st.ok());
}

TEST(EngineTest, RejectsDuplicateName) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "q").ok());
  Status st = engine.AddQuery("proc p read file f as e return p", "q");
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, RequiresQueriesBeforeRun) {
  SaqlEngine engine;
  VectorEventSource source(EventBatch{});
  EXPECT_FALSE(engine.Run(&source).ok());
}

TEST(EngineTest, CannotRunTwice) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "q").ok());
  VectorEventSource source(EventBatch{});
  ASSERT_TRUE(engine.Run(&source).ok());
  VectorEventSource source2(EventBatch{});
  EXPECT_FALSE(engine.Run(&source2).ok());
}

TEST(EngineTest, CompatibleQueriesShareOneGroup) {
  SaqlEngine engine;
  ASSERT_TRUE(engine
                  .AddQuery("proc p[\"%a.exe\"] write ip i as e return p",
                            "qa")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("proc p[\"%b.exe\"] write ip i as e return p",
                            "qb")
                  .ok());
  EventBatch events;
  events.push_back(NetWrite("a.exe", "1.1.1.1", 10, kSecond));
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  EXPECT_EQ(engine.num_queries(), 2u);
  EXPECT_EQ(engine.num_groups(), 1u);
  // One delivery to the group, not one per query.
  EXPECT_EQ(engine.executor_stats().deliveries, 1u);
}

TEST(EngineTest, GroupingDisabledGivesOneGroupPerQuery) {
  SaqlEngine::Options opts;
  opts.enable_grouping = false;
  SaqlEngine engine(opts);
  ASSERT_TRUE(engine
                  .AddQuery("proc p[\"%a.exe\"] write ip i as e return p",
                            "qa")
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery("proc p[\"%b.exe\"] write ip i as e return p",
                            "qb")
                  .ok());
  EventBatch events;
  events.push_back(NetWrite("a.exe", "1.1.1.1", 10, kSecond));
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  EXPECT_EQ(engine.num_groups(), 2u);
  EXPECT_EQ(engine.executor_stats().deliveries, 2u);
}

TEST(EngineTest, IncompatibleQueriesSplitGroups) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "net").ok());
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "file").ok());
  EventBatch events;
  events.push_back(NetWrite("a.exe", "1.1.1.1", 10, kSecond));
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  EXPECT_EQ(engine.num_groups(), 2u);
}

TEST(EngineTest, QueryStatsReported) {
  EventBatch events;
  events.push_back(NetWrite("m.exe", "1.1.1.1", 10, kSecond));
  events.push_back(NetWrite("m.exe", "1.1.1.1", 10, 2 * kSecond));
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%m.exe\"] write ip i as e return p, i",
                      "q").ok());
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.matches, 2u);
  EXPECT_EQ(stats[0].second.alerts, 2u);
}

TEST(EngineTest, CustomAlertSinkReceivesAlerts) {
  EventBatch events;
  events.push_back(NetWrite("m.exe", "1.1.1.1", 10, kSecond));
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "q").ok());
  int fired = 0;
  engine.SetAlertSink([&](const Alert&) { ++fired; });
  VectorEventSource source(std::move(events));
  ASSERT_TRUE(engine.Run(&source).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.alerts().empty());  // custom sink replaced buffering
}

}  // namespace
}  // namespace saql
